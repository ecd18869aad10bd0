"""Ground-truth address-usage generators.

Each model produces, for one /24 block, the boolean activity of every
ever-active address on the world's 660-second round grid.  The models
encode the address-use regimes the paper observes (§2.4, §3.5):

* :class:`WorkplaceUsage` — desktops on public IPs during local work
  hours on workdays (the USC block of Figure 1);
* :class:`HomeEveningUsage` — evening/weekend devices on public IPs;
* :class:`DynamicPoolUsage` — ISP pools assigning public addresses to
  active subscribers (the Asia-heavy diurnal regime of Figure 7);
* :class:`ServerFarmUsage` — always-on servers (dense blocks that scan
  slowly and are not change-sensitive);
* :class:`NatGatewayUsage` — a handful of always-on home routers hiding
  everything behind NAT;
* :class:`SparseUsage` — intermittent, non-diurnal addresses;
* :class:`FirewalledUsage` — historically active space that no longer
  answers probes.

Human events (WFH, holidays, curfews) enter through the per-day activity
factors of the block's :class:`~repro.net.events.Calendar`; network events
(outages, renumbering, migration) are applied afterwards as truth
transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .addresses import BLOCK_SIZE
from .events import Calendar, Channel

ROUND_SECONDS = 660.0

__all__ = [
    "ROUND_SECONDS",
    "BlockTruth",
    "UsageModel",
    "WorkplaceUsage",
    "HomeEveningUsage",
    "DynamicPoolUsage",
    "ServerFarmUsage",
    "NatGatewayUsage",
    "SparseUsage",
    "FirewalledUsage",
    "round_grid",
]


def round_grid(duration_s: float, round_seconds: float = ROUND_SECONDS) -> np.ndarray:
    """Round-start times covering ``[0, duration_s)``."""
    n = int(np.ceil(duration_s / round_seconds))
    return np.arange(n, dtype=np.float64) * round_seconds


@dataclass(frozen=True)
class BlockTruth:
    """Ground-truth activity of a block's ever-active addresses E(b).

    ``active[i, c]`` says whether address ``addresses[i]`` (a last octet)
    answers a probe during round column ``c`` (``col_times[c]`` is the
    column's start, seconds since the world epoch).
    """

    addresses: np.ndarray  # int16 last octets, shape [m]
    active: np.ndarray  # bool, shape [m, n_cols]
    col_times: np.ndarray  # float64, shape [n_cols]
    round_seconds: float = ROUND_SECONDS

    def __post_init__(self) -> None:
        if self.active.shape != (self.addresses.size, self.col_times.size):
            raise ValueError(
                f"active matrix shape {self.active.shape} does not match "
                f"{self.addresses.size} addresses x {self.col_times.size} columns"
            )

    @property
    def n_addresses(self) -> int:
        return int(self.addresses.size)

    @property
    def n_cols(self) -> int:
        return int(self.col_times.size)

    @property
    def duration_s(self) -> float:
        return self.n_cols * self.round_seconds

    def column_of(self, time_s: float) -> int:
        """Round column covering ``time_s`` (clamped to the grid)."""
        if not self.n_cols:
            raise ValueError("a truth without columns has no column for any time")
        col = int((time_s - float(self.col_times[0])) // self.round_seconds)
        return min(max(col, 0), self.n_cols - 1)

    def counts(self) -> np.ndarray:
        """True active-address count per column (ground-truth signal)."""
        return self.active.sum(axis=0).astype(np.float64)

    def ever_responsive(self) -> bool:
        return bool(self.active.any())


def _clip_prob(p: np.ndarray | float) -> np.ndarray:
    return np.clip(p, 0.0, 0.99)


def _day_bounds(day_col: np.ndarray, n_days: int) -> np.ndarray:
    """Column bounds of each local day: day ``d`` covers ``[b[d], b[d+1])``."""
    return np.searchsorted(day_col, np.arange(n_days + 1))


def _paint(out: np.ndarray, row: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Set ``out[row[j], lo[j]:hi[j]] = True`` for every interval ``j``.

    ``out`` is all False.  Intervals come sorted by row, then by ``lo``,
    with ``hi`` non-decreasing within a row; they may be empty, touch or
    overlap.  In row-major flat offsets they merge into disjoint runs,
    and one ``np.repeat`` of alternating False/True over the gaps and
    runs writes the whole matrix (a 1-D cumsum over the same buffer is
    about 50x slower).
    """
    keep = hi > lo
    if not keep.any():
        return
    base = row[keep].astype(np.int64) * out.shape[1]
    a, b = base + lo[keep], base + hi[keep]
    starts = np.ones(a.size, dtype=bool)
    starts[1:] = a[1:] > b[:-1]
    stops = np.ones(a.size, dtype=bool)
    stops[:-1] = starts[1:]
    edges = np.empty(2 * int(starts.sum()) + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, out.size
    edges[1:-1:2], edges[2:-1:2] = a[starts], b[stops]
    values = np.zeros(edges.size - 1, dtype=bool)
    values[1::2] = True
    out[...] = np.repeat(values, np.diff(edges)).reshape(out.shape)


def _interval_paint(
    out: np.ndarray,
    day_col: np.ndarray,
    lsod: np.ndarray,
    present: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> None:
    """Write unit-day on-intervals into ``out`` (the window's columns).

    The local second of day rises within a day, so a unit-day is on over
    one run of the day's columns, found by two ``searchsorted`` calls:
    ``lsod >= start`` and ``lsod < end``.
    """
    n_units, n_days = present.shape
    lo = np.zeros((n_units, n_days), dtype=np.int64)
    hi = np.zeros((n_units, n_days), dtype=np.int64)
    bounds = _day_bounds(day_col, n_days)
    for d in np.flatnonzero(np.diff(bounds)):
        c0, c1 = bounds[d], bounds[d + 1]
        lo[:, d] = c0 + np.searchsorted(lsod[c0:c1], start[:, d])
        hi[:, d] = c0 + np.searchsorted(lsod[c0:c1], end[:, d])
    hi[~present] = 0
    _paint(out, np.repeat(np.arange(n_units), n_days), lo.ravel(), hi.ravel())


def _interval_gather(
    day_col: np.ndarray,
    lsod: np.ndarray,
    present: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """Oracle of :func:`_interval_paint`: per-column gathers of the day draws."""
    on = present[:, day_col]
    return on & (lsod[None, :] >= start[:, day_col]) & (lsod[None, :] < end[:, day_col])


class UsageModel:
    """Base class: handles the E(b) layout and stale-address padding."""

    channel: Channel = Channel.HOME
    #: addresses in E(b) that were active historically but never respond
    #: now (Trinocular's target lists are refreshed only quarterly, §2.2)
    stale_addresses: int = 0

    def _core_size(self) -> int:
        raise NotImplementedError

    def _fill_core(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        out: np.ndarray,
    ) -> None:
        """Write the core addresses' activity over ``col_times[first_col:]``.

        ``out`` is an all-False ``[core, n_cols - first_col]`` matrix.
        Every random draw covers the whole grid whatever ``first_col``
        is, so the generator ends in the same state.
        """
        raise NotImplementedError

    def _core_reference(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        """The core matrix over the whole grid, as :meth:`generate_reference` builds it."""
        out = np.zeros((self._core_size(), col_times.size), dtype=bool)
        self._fill_core(rng, col_times, calendar, 0, out)
        return out

    def eb_size(self) -> int:
        """Number of addresses in E(b) (probed addresses)."""
        return min(self._core_size() + self.stale_addresses, BLOCK_SIZE)

    def generate(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        *,
        first_col: int = 0,
    ) -> BlockTruth:
        """The block's ground truth over the columns ``col_times[first_col:]``.

        Equal, bit for bit and in the end state of ``rng``, to
        :meth:`generate_reference`: every draw spans the whole grid, and
        only their expansion into columns starts at ``first_col``.  Stale
        rows are the zero tail of one preallocated matrix, and the
        calendar's transforms, all column-local, run on the window
        (docs/algorithms.md §18).  The activity matrix is the truth's
        own, never a view of a whole-grid one.
        """
        n_cols = col_times.size
        if not 0 <= first_col <= n_cols:
            raise ValueError(f"first_col {first_col} is outside a grid of {n_cols} columns")
        # an empty window is built from the last column and trimmed, so
        # the transforms draw exactly as they do on the whole grid
        lo = min(first_col, max(n_cols - 1, 0))
        window = col_times[lo:].copy() if lo else col_times
        core = self._core_size()
        active = np.zeros((max(self.eb_size(), core), window.size), dtype=bool)
        self._fill_core(rng, col_times, calendar, lo, active[:core])
        addresses = rng.permutation(BLOCK_SIZE)[: active.shape[0]].astype(np.int16)
        active = calendar.apply_transforms(active, window, rng)
        if lo < first_col:
            active, window = active[:, 1:], window[1:]
        return BlockTruth(addresses=addresses, active=active, col_times=window)

    def generate_reference(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        *,
        first_col: int = 0,
    ) -> BlockTruth:
        """Oracle of :meth:`generate`: the whole grid, then sliced at ``first_col``."""
        core = self._core_reference(rng, col_times, calendar)
        n_stale = self.eb_size() - core.shape[0]
        if n_stale > 0:
            stale = np.zeros((n_stale, col_times.size), dtype=bool)
            active = np.vstack((core, stale))
        else:
            active = core
        addresses = rng.permutation(BLOCK_SIZE)[: active.shape[0]].astype(np.int16)
        active = calendar.apply_transforms(active, col_times, rng)
        return BlockTruth(
            addresses=addresses, active=active[:, first_col:], col_times=col_times[first_col:]
        )

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _day_layout(
        self, col_times: np.ndarray, calendar: Calendar, first_col: int = 0
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Window columns' (day offset, local second-of-day), plus the grid's day range."""
        if not col_times.size:
            return np.zeros(0, dtype=np.int64), np.zeros(0), 0, 0
        first_day = int(calendar.local_day(col_times[0]))
        n_days = int(calendar.local_day(col_times[-1])) - first_day + 1
        window = col_times[first_col:]
        days = calendar.local_day(window) - first_day
        return days, calendar.local_second_of_day(window), first_day, n_days

    def _interval_draws(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        *,
        n_units: int,
        presence: float,
        start_hour: float,
        start_jitter: float,
        end_hour: float,
        end_jitter: float,
        workdays_only: bool,
        weekend_start_hour: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Units on between jittered daily start/end local times.

        Returns the window columns' day offsets and local seconds of day,
        and per-(unit, day) presence and start/end seconds over the grid.
        """
        day_col, lsod, first_day, n_days = self._day_layout(col_times, calendar, first_col)
        workday, factor = calendar.day_table(first_day, n_days, self.channel)

        p = _clip_prob(presence * np.minimum(factor, 1.25))
        present = rng.random((n_units, n_days)) < p[None, :]
        if workdays_only:
            present &= workday[None, :]

        start = rng.normal(start_hour, start_jitter, (n_units, n_days)) * 3600.0
        end = rng.normal(end_hour, end_jitter, (n_units, n_days)) * 3600.0
        if weekend_start_hour is not None:
            weekend = ~workday
            early = rng.normal(weekend_start_hour, start_jitter, (n_units, n_days)) * 3600.0
            start = np.where(weekend[None, :], early, start)
        end = np.maximum(end, start + 1800.0)  # at least half an hour on
        return day_col, lsod, present, start, end


class WorkplaceUsage(UsageModel):
    """Office/university desktops plus a few always-on servers."""

    channel = Channel.WORK

    def __init__(
        self,
        n_desktops: int = 40,
        n_servers: int = 2,
        presence: float = 0.85,
        start_hour: float = 8.5,
        end_hour: float = 17.5,
        stale_addresses: int = 4,
    ) -> None:
        self.n_desktops = n_desktops
        self.n_servers = n_servers
        self.presence = presence
        self.start_hour = start_hour
        self.end_hour = end_hour
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_desktops + self.n_servers

    def _draws(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar, first_col: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self._interval_draws(
            rng,
            col_times,
            calendar,
            first_col,
            n_units=self.n_desktops,
            presence=self.presence,
            start_hour=self.start_hour,
            start_jitter=0.6,
            end_hour=self.end_hour,
            end_jitter=1.0,
            workdays_only=True,
        )

    def _fill_core(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        out: np.ndarray,
    ) -> None:
        _interval_paint(out[: self.n_desktops], *self._draws(rng, col_times, calendar, first_col))
        out[self.n_desktops :] = True  # the servers

    def _core_reference(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        desktops = _interval_gather(*self._draws(rng, col_times, calendar, 0))
        servers = np.ones((self.n_servers, col_times.size), dtype=bool)
        return np.vstack((desktops, servers))


class HomeEveningUsage(UsageModel):
    """Home devices on public IPs: evenings on workdays, daytime on weekends."""

    channel = Channel.HOME

    def __init__(
        self,
        n_devices: int = 24,
        presence: float = 0.7,
        stale_addresses: int = 4,
    ) -> None:
        self.n_devices = n_devices
        self.presence = presence
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_devices

    def _draws(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar, first_col: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self._interval_draws(
            rng,
            col_times,
            calendar,
            first_col,
            n_units=self.n_devices,
            presence=self.presence,
            start_hour=17.5,
            start_jitter=0.8,
            end_hour=23.5,
            end_jitter=0.7,
            workdays_only=False,
            weekend_start_hour=10.0,
        )

    def _fill_core(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        out: np.ndarray,
    ) -> None:
        _interval_paint(out, *self._draws(rng, col_times, calendar, first_col))

    def _core_reference(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        return _interval_gather(*self._draws(rng, col_times, calendar, 0))


class DynamicPoolUsage(UsageModel):
    """An ISP pool assigning public addresses to active subscribers.

    Occupancy follows a smooth diurnal curve (trough ~4am, peak ~9pm
    local); address ``i`` is active while the pool occupancy exceeds its
    per-day threshold, which mimics paired pooling: subscribers hold an
    address for the session, and low-numbered pool slots fill first.
    """

    channel = Channel.POOL

    def __init__(
        self,
        pool_size: int = 160,
        peak: float = 0.7,
        trough: float = 0.12,
        peak_hour: float = 21.0,
        quiet_week_probability: float = 0.03,
        stale_addresses: int = 6,
    ) -> None:
        self.pool_size = pool_size
        self.peak = peak
        self.trough = trough
        self.peak_hour = peak_hour
        self.quiet_week_probability = quiet_week_probability
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.pool_size

    def _draws(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Window columns' day offsets and occupancy, and per-(slot, day) thresholds."""
        day_col, lsod, first_day, n_days = self._day_layout(col_times, calendar, first_col)
        _, factor = calendar.day_table(first_day, n_days, self.channel)

        phase = 2.0 * np.pi * (lsod / 86_400.0 - self.peak_hour / 24.0)
        curve = self.trough + (self.peak - self.trough) * (0.5 + 0.5 * np.cos(phase))
        day_wobble = rng.normal(1.0, 0.05, n_days)
        # occasional quiet weeks: demand collapses toward the trough
        # (local events we do not model); these lapses are what dilutes
        # diurnality over long observation windows (S3.2.1)
        n_weeks = n_days // 7 + 1
        quiet = rng.random(n_weeks) < self.quiet_week_probability
        week_factor = np.where(quiet, 0.5, 1.0)[np.arange(n_days) // 7]
        occupancy = np.clip(
            curve * factor[day_col] * (day_wobble * week_factor)[day_col], 0.0, 1.0
        )

        base = (np.arange(self.pool_size) + 0.5) / self.pool_size
        thresholds = np.clip(
            base[:, None] + rng.normal(0.0, 0.04, (self.pool_size, n_days)), 0.0, 1.0
        )
        return day_col, occupancy, thresholds

    def _fill_core(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        out: np.ndarray,
    ) -> None:
        day_col, occupancy, thresholds = self._draws(rng, col_times, calendar, first_col)
        # a local day is a contiguous run of columns: compare per day
        # rather than gather an [m, n_cols] threshold matrix
        bounds = _day_bounds(day_col, thresholds.shape[1])
        for d in np.flatnonzero(np.diff(bounds)):
            c0, c1 = bounds[d], bounds[d + 1]
            np.less(thresholds[:, d, None], occupancy[c0:c1], out=out[:, c0:c1])

    def _core_reference(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        day_col, occupancy, thresholds = self._draws(rng, col_times, calendar, 0)
        return thresholds[:, day_col] < occupancy[None, :]


class ServerFarmUsage(UsageModel):
    """A dense block of always-on servers with rare maintenance windows."""

    channel = Channel.WORK

    def __init__(
        self,
        n_servers: int = 248,
        maintenance_rate_per_day: float = 0.01,
        maintenance_hours: float = 3.0,
        stale_addresses: int = 0,
    ) -> None:
        self.n_servers = n_servers
        self.maintenance_rate_per_day = maintenance_rate_per_day
        self.maintenance_hours = maintenance_hours
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_servers

    def _fill_core(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        out: np.ndarray,
    ) -> None:
        out[...] = True
        duration_days = col_times[-1] / 86_400.0 if col_times.size else 0.0
        expected = self.n_servers * self.maintenance_rate_per_day * duration_days
        n_windows = rng.poisson(max(expected, 0.0))
        cols_per_window = max(int(self.maintenance_hours * 3600.0 / ROUND_SECONDS), 1)
        for _ in range(int(n_windows)):
            server = rng.integers(self.n_servers)
            start = rng.integers(max(col_times.size - cols_per_window, 1)) - first_col
            out[server, max(start, 0) : max(start + cols_per_window, 0)] = False


class NatGatewayUsage(UsageModel):
    """A handful of always-on NAT routers; human activity is invisible."""

    channel = Channel.HOME

    def __init__(self, n_routers: int = 4, stale_addresses: int = 2) -> None:
        self.n_routers = n_routers
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_routers

    def _fill_core(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        out: np.ndarray,
    ) -> None:
        out[...] = True


class SparseUsage(UsageModel):
    """Intermittently used addresses with no daily rhythm (telegraph)."""

    channel = Channel.HOME

    def __init__(
        self,
        n_addresses: int = 10,
        mean_on_days: float = 3.0,
        mean_off_days: float = 4.0,
        stale_addresses: int = 2,
    ) -> None:
        self.n_addresses = n_addresses
        self.mean_on_days = mean_on_days
        self.mean_off_days = mean_off_days
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_addresses

    def _span_guess(self, duration: float) -> int:
        """Spans to draw at first: the expected count plus four deviations."""
        expected = 2.0 * duration / ((self.mean_on_days + self.mean_off_days) * 86_400.0)
        return int(expected + 4.0 * np.sqrt(expected)) + 16

    def _fill_core(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        out: np.ndarray,
    ) -> None:
        """:meth:`_core_reference`'s renewal process, one address per numpy pass.

        ``rng.exponential(mean)`` is ``mean * standard_exponential()``, so
        an address's spans are ``(means * E) * 86400`` over speculatively
        drawn variates ``E``; ``cumsum`` adds them in the loop's order and
        ``searchsorted`` finds the span that crosses the grid's end.  The
        generator then rewinds and redraws exactly the variates used.
        """
        n_cols = col_times.size
        duration = n_cols * ROUND_SECONDS
        size = self._span_guess(duration)
        # alternating span means; an address starting off reads from [1:]
        cycle = np.array([self.mean_on_days, self.mean_off_days])
        means = np.resize(cycle, size + 1)
        rows: list[np.ndarray] = []
        on_at: list[np.ndarray] = []  # on-span start and end times
        off_at: list[np.ndarray] = []
        for i in range(self.n_addresses):
            state = bool(rng.random() < 0.5)
            if not duration > 0:
                continue
            saved = rng.bit_generator.state
            draws = rng.standard_exponential(size)
            while True:
                if means.size <= draws.size:
                    means = np.resize(cycle, draws.size + 1)
                t = np.zeros(draws.size + 1)  # t[j]: span j's start, t[j + 1] its end
                np.cumsum((means[1 - state :][: draws.size] * draws) * 86_400.0, out=t[1:])
                if t[-1] >= duration:
                    break
                draws = np.concatenate((draws, rng.standard_exponential(draws.size)))
            used = int(np.searchsorted(t[1:], duration)) + 1
            rng.bit_generator.state = saved
            rng.standard_exponential(used)
            on = slice(1 - state, used, 2)
            on_at.append(t[on])
            off_at.append(t[1:][on])
            rows.append(np.full(on_at[-1].size, i))
        if rows:
            lo = (np.concatenate(on_at) // ROUND_SECONDS).astype(np.int64) - first_col
            hi = (np.concatenate(off_at) // ROUND_SECONDS).astype(np.int64) + 1
            hi = np.minimum(hi, n_cols) - first_col
            _paint(out, np.concatenate(rows), np.maximum(lo, 0), hi)

    def _core_reference(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        n_cols = col_times.size
        duration = n_cols * ROUND_SECONDS
        active = np.zeros((self.n_addresses, n_cols), dtype=bool)
        for i in range(self.n_addresses):
            t = 0.0
            state = bool(rng.random() < 0.5)
            while t < duration:
                mean = self.mean_on_days if state else self.mean_off_days
                span = rng.exponential(mean) * 86_400.0
                if state:
                    lo = int(t // ROUND_SECONDS)
                    hi = min(int((t + span) // ROUND_SECONDS) + 1, n_cols)
                    active[i, lo:hi] = True
                t += span
                state = not state
        return active


class FirewalledUsage(UsageModel):
    """Historically responsive space that now answers nothing."""

    channel = Channel.HOME

    def __init__(self, eb_addresses: int = 16) -> None:
        self._eb = eb_addresses
        self.stale_addresses = 0

    def _core_size(self) -> int:
        return self._eb

    def _fill_core(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        first_col: int,
        out: np.ndarray,
    ) -> None:
        pass  # ``out`` is all False already
