"""Observer simulators: Trinocular-style adaptive probing and extensions.

:class:`TrinocularObserver` reproduces the probing discipline the paper's
data source uses (§2.2–§2.3): rounds every 11 minutes, targets taken from
a pseudorandom order fixed for the quarter, at most ``max_probes_per_round``
probes per round, and — crucially — probing stops at the block's first
positive reply of the round.  That early stop is what makes dense blocks
scan slowly (§3.1, Figure 5) and what the §2.8 additional prober
(:class:`AdditionalProber`) relaxes.

Observers start unsynchronized (``phase_offset_s``), which is what makes
combining observers shorten full-block-scan times (§2.7, Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..obs.metrics import get_registry
from ..obs.names import metric_name
from .loss import LossModel, NoLoss
from .observations import ObservationSeries
from .usage import BlockTruth

__all__ = [
    "TrinocularObserver",
    "AdditionalProber",
    "ProbeLane",
    "count_probe_volume",
    "probe_order",
]


def count_probe_volume(kind: str, series: ObservationSeries) -> ObservationSeries:
    """Feed the probe-volume counters and return ``series`` unchanged.

    ``probes.sent.<kind>`` counts every probe an observer simulator
    emitted; ``probes.positive.<kind>`` the replies.  The paper sizes
    real probing budgets from exactly these volumes (§2.7–§2.8), so the
    telemetry layer tracks them per observer family.
    """
    registry = get_registry()
    registry.counter(metric_name("probes.sent", kind)).inc(len(series))
    registry.counter(metric_name("probes.positive", kind)).inc(int(np.sum(series.results)))
    return series


def probe_order(n_targets: int, seed: int) -> np.ndarray:
    """The pseudorandom target order, fixed per (block, quarter).

    Every observer uses the same order (paper §2.2); they differ only in
    start phase and in where their cursor happens to be.
    """
    rng = np.random.default_rng(seed)
    return rng.permutation(n_targets)


@dataclass(frozen=True)
class TrinocularObserver:
    """One probing site running the adaptive Trinocular algorithm."""

    name: str
    phase_offset_s: float = 0.0
    max_probes_per_round: int = 15
    probe_spacing_s: float = 3.0
    round_seconds: float = 660.0

    def observe(
        self,
        truth: BlockTruth,
        order: np.ndarray,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        *,
        start_s: float = 0.0,
        duration_s: float | None = None,
        start_cursor: int = 0,
    ) -> ObservationSeries:
        """Probe one block for ``duration_s`` and return the probe log.

        The cursor walks ``order`` circularly and never resets between
        rounds; each round sends probes until the first positive reply or
        the per-round limit.  Lost probes are recorded as non-replies —
        an observer cannot tell loss from inactivity.

        Vectorized simulation, bit-identical to
        :meth:`observe_reference` (including the uniform-draw stream the
        loss model consumes).  The per-probe Python loop is gone:

        * the permuted truth of the probed columns only is stored
          column-major as one ``bytes`` object, so resolving a round is
          a single C-speed ``find`` over its at-most-``max_probes``
          candidate window (two ``find`` calls when the window wraps the
          cursor or crosses a truth column) — dark rounds and
          first-reply rounds cost the same;
        * candidate probe times are built for all rounds at once with a
          row-wise ``cumsum`` (sequential accumulation, so the floats
          match the reference's repeated ``t += spacing`` exactly) and
          truth columns are derived from them in bulk;
        * because the cursor never resets, probe ``i`` of the run targets
          ``order[(start_cursor + i) % m]`` — the output arrays are
          assembled in one shot from the per-round probe counts, with a
          round's final probe marked positive only when its reply
          survived loss.

        Only loss draws stay sequential (one uniform per active-truth
        probe, in probe order, from the same lazily refilled 4096-chunk
        buffer), because each draw's outcome decides whether the round
        continues.  The one-``find`` fast path serves loss-free rounds
        only: scenario worlds put ``Scenario.base_loss`` on every path,
        so their rounds all take the general branch, which walks the
        same windows but draws a uniform at each active target.

        :meth:`observe_batch` runs many (block, observer) lanes through
        one lockstep round loop with identical output.
        """
        loss = loss or NoLoss()
        rng = rng or np.random.default_rng(0)
        if duration_s is None:
            duration_s = truth.duration_s - start_s
        end_s = start_s + duration_s

        m = int(order.size)
        if m == 0 or truth.n_cols == 0:
            return ObservationSeries(
                times=np.array([]),
                addresses=np.array([], dtype=np.int16),
                results=np.array([], dtype=bool),
                observer=self.name,
            )
        if m != truth.n_addresses:
            raise ValueError("order must permute the block's E(b) addresses")

        round_s = self.round_seconds
        n_rounds = int(np.ceil((end_s - start_s - self.phase_offset_s) / round_s))
        n_rounds = max(n_rounds, 0)
        round_starts = start_s + self.phase_offset_s + np.arange(n_rounds) * round_s
        # the reference stops at the first round starting at/after end_s
        n_rounds = int(np.searchsorted(round_starts, end_s, side="left"))
        round_starts = round_starts[:n_rounds]
        if n_rounds == 0:
            # the scalar implementation prefilled its draw buffer before
            # noticing the window was empty; consume the same uniforms so
            # callers sharing the generator stay bit-compatible
            rng.random(4096)
            return count_probe_volume(
                "trinocular",
                ObservationSeries(
                    times=np.array([]),
                    addresses=np.array([], dtype=np.int16),
                    results=np.array([], dtype=bool),
                    observer=self.name,
                ),
            )
        loss_p = loss.loss_probability(round_starts) if loss.max_probability() > 0 else None

        n_cols = truth.n_cols
        col_origin = float(truth.col_times[0])
        inv_round = 1.0 / truth.round_seconds
        max_probes = min(self.max_probes_per_round, m)
        spacing = self.probe_spacing_s
        K = max_probes

        # candidate probe times per round, accumulated exactly like the
        # reference's repeated `t += spacing` (cumsum adds sequentially)
        T = np.empty((n_rounds, K), dtype=np.float64)
        T[:, 0] = round_starts
        if K > 1:
            T[:, 1:] = spacing
        np.cumsum(T, axis=1, out=T)
        n_time = (T < end_s).sum(axis=1).astype(np.int64)
        rem_arr = np.minimum(n_time, K)

        # per-probe truth columns; a round spans < round_seconds so it
        # touches at most two, and only rounds straddling a column
        # boundary (rare) need a crossover index — everything else reads
        # its first probe's column throughout (jc = K sentinel)
        c0_arr = np.clip(
            ((round_starts - col_origin) * inv_round).astype(np.int64), 0, n_cols - 1
        )
        jc_arr = np.full(n_rounds, K, dtype=np.int64)
        c1_arr = c0_arr
        if K > 1:
            c_last = np.clip(
                ((T[:, K - 1] - col_origin) * inv_round).astype(np.int64),
                0,
                n_cols - 1,
            )
            cross = np.flatnonzero(c_last != c0_arr)
            if cross.size:
                Cx = np.clip(
                    ((T[cross] - col_origin) * inv_round).astype(np.int64),
                    0,
                    n_cols - 1,
                )
                jc_x = (Cx == Cx[:, :1]).sum(axis=1)
                jc_arr[cross] = jc_x
                c1_arr = c0_arr.copy()
                c1_arr[cross] = Cx[np.arange(cross.size), jc_x]

        # permuted truth of the probed columns [lo, hi) as column-major
        # bytes: column c's cursor walk is the slice [(c - lo) * m,
        # (c - lo + 1) * m), searched with C-speed find
        lo = int(c0_arr[0])
        hi = int(c1_arr.max()) + 1
        colbytes = np.ascontiguousarray(truth.active[:, lo:hi][order].T).tobytes()
        if lo:
            c0_arr = c0_arr - lo
            c1_arr = c1_arr - lo

        # uniform draws for loss, consumed lazily — identical stream to
        # the reference: one draw per active-truth probe when p > 0
        draw_buf = rng.random(4096)
        draw_i = 0

        k_out: list[int] = []
        hit_out: list[bool] = []
        k_app, hit_app = k_out.append, hit_out.append
        c1_l = c1_arr.tolist()
        p_l = loss_p.tolist() if loss_p is not None else None
        find = colbytes.find

        cur = start_cursor % m
        for r, (rem, c0, jc) in enumerate(
            zip(rem_arr.tolist(), c0_arr.tolist(), jc_arr.tolist())
        ):
            p = 0.0 if p_l is None else p_l[r]
            if p == 0.0 and jc >= rem:
                # fast path: one column, no loss — find the round's first
                # active target (two searches when the cursor walk wraps)
                base = c0 * m
                end1 = cur + rem
                if end1 > m:
                    end1 = m
                f = find(1, base + cur, base + end1)
                if f >= 0:
                    k = f - base - cur + 1
                    hit = True
                else:
                    got = end1 - cur
                    if rem > got:
                        f = find(1, base, base + rem - got)
                    if f >= 0:
                        k = got + f - base + 1
                        hit = True
                    else:
                        k = rem
                        hit = False
                k_app(k)
                hit_app(hit)
                cur += k
                if cur >= m:
                    cur -= m
                continue
            j = 0
            hit = False
            while j < rem:
                # sub-window [j, seg_end) reads a single truth column
                if j < jc:
                    c = c0
                    seg_end = jc if jc < rem else rem
                else:
                    c = c1_l[r]
                    seg_end = rem
                # first active target in the sub-window (cursor walk may
                # wrap the block, hence up to two contiguous searches)
                base = c * m
                a = cur + j
                if a >= m:
                    a -= m
                end1 = a + (seg_end - j)
                if end1 > m:
                    end1 = m
                f = find(1, base + a, base + end1)
                if f >= 0:
                    j += f - base - a
                elif seg_end - j > end1 - a:
                    f = find(1, base, base + (seg_end - j) - (end1 - a))
                    if f >= 0:
                        j += (end1 - a) + (f - base)
                if f < 0:
                    j = seg_end
                    continue
                st = True
                if p > 0.0:
                    if draw_i >= 4096:
                        draw_buf = rng.random(4096)
                        draw_i = 0
                    if draw_buf[draw_i] < p:
                        st = False
                    draw_i += 1
                j += 1
                if st:
                    hit = True
                    break
            k_app(j)
            hit_app(hit)
            cur += j
            if cur >= m:
                cur -= m
        return _assemble_log(
            self.name,
            truth.addresses,
            order,
            start_cursor,
            round_starts,
            spacing,
            np.asarray(k_out, dtype=np.int64),
            np.asarray(hit_out, dtype=bool),
        )

    @staticmethod
    def observe_batch(lanes: Iterable["ProbeLane"]) -> Iterator[ObservationSeries]:
        """Probe many (block, observer) lanes in one lockstep round loop.

        Returns an iterator over the lanes' probe logs in lane order,
        each equal bit for bit to what :meth:`observe` returns for it: same log, same
        ``probes.*.trinocular`` counter increments, same uniforms drawn
        from the lane's generator.  Lanes must not share a generator.

        Every numpy step advances all lanes by one round:

        * a run of consecutive lanes sharing one ``truth`` and ``order``
          (a block's observers) shares one next-active table over the
          window's probed columns — entry (column, cursor) is the offset
          of the first active target at or after the cursor, capped at
          the lanes' per-round limit — so resolving a round is a single
          lookup per lane;
        * loss is handled as exceptions: each 4096-draw chunk is
          pre-scanned for draws below ``loss.max_probability()``, the
          only ones that can lose a reply; a reply meeting such a draw,
          or the end of a chunk, runs a short scalar continuation that
          refills the stream exactly when :meth:`observe` would.

        The round loop runs during the call, which consumes ``lanes``
        once and keeps only the tables of their truths; logs are then
        assembled one lane at a time as the caller iterates, so a
        consumer that keeps only one block's logs never holds all of
        them.  Lanes the kernel does not cover (empty blocks or windows,
        zero-probability rounds under a lossy model, per-round limits
        above 127) run through :meth:`observe` when their turn comes.
        """
        run = _Lockstep(lanes)
        return (run.series(i) for i in range(run.n_lanes))

    def observe_reference(
        self,
        truth: BlockTruth,
        order: np.ndarray,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        *,
        start_s: float = 0.0,
        duration_s: float | None = None,
        start_cursor: int = 0,
    ) -> ObservationSeries:
        """Probe-by-probe oracle for :meth:`observe` (tests only).

        The original scalar round loop; :meth:`observe` must reproduce
        its output bit-for-bit, including which uniforms the loss model
        consumes.  Does not feed the probe-volume counters, so running
        the oracle beside the production path leaves telemetry intact.
        """
        loss = loss or NoLoss()
        rng = rng or np.random.default_rng(0)
        if duration_s is None:
            duration_s = truth.duration_s - start_s
        end_s = start_s + duration_s

        m = int(order.size)
        if m == 0 or truth.n_cols == 0:
            return ObservationSeries(
                times=np.array([]),
                addresses=np.array([], dtype=np.int16),
                results=np.array([], dtype=bool),
                observer=self.name,
            )
        if m != truth.n_addresses:
            raise ValueError("order must permute the block's E(b) addresses")

        round_s = self.round_seconds
        n_rounds = int(np.ceil((end_s - start_s - self.phase_offset_s) / round_s))
        n_rounds = max(n_rounds, 0)
        round_starts = start_s + self.phase_offset_s + np.arange(n_rounds) * round_s
        loss_p = loss.loss_probability(round_starts) if loss.max_probability() > 0 else None

        # flatten truth to a bytes object for the fastest scalar lookups
        flat = truth.active.astype(np.uint8).tobytes()
        n_cols = truth.n_cols
        col_origin = float(truth.col_times[0])
        inv_round = 1.0 / truth.round_seconds
        order_list = order.tolist()
        addr_of = truth.addresses.tolist()
        max_probes = min(self.max_probes_per_round, m)
        spacing = self.probe_spacing_s

        # uniform draws for loss, consumed lazily
        draw_buf = rng.random(4096)
        draw_i = 0

        times: list[float] = []
        addrs: list[int] = []
        results: list[bool] = []
        t_app, a_app, r_app = times.append, addrs.append, results.append

        cur = start_cursor % m
        for r in range(n_rounds):
            t = round_starts[r]
            if t >= end_s:
                break
            p = 0.0 if loss_p is None else loss_p[r]
            k = 0
            while True:
                idx = order_list[cur]
                col = int((t - col_origin) * inv_round)
                if col >= n_cols:
                    col = n_cols - 1
                elif col < 0:
                    col = 0
                st = flat[idx * n_cols + col]
                if st and p > 0.0:
                    if draw_i >= 4096:
                        draw_buf = rng.random(4096)
                        draw_i = 0
                    if draw_buf[draw_i] < p:
                        st = 0
                    draw_i += 1
                t_app(t)
                a_app(addr_of[idx])
                r_app(bool(st))
                cur += 1
                if cur == m:
                    cur = 0
                k += 1
                if st or k >= max_probes:
                    break
                t += spacing
                if t >= end_s:
                    break
        return ObservationSeries(
            times=np.asarray(times, dtype=np.float64),
            addresses=np.asarray(addrs, dtype=np.int16),
            results=np.asarray(results, dtype=bool),
            observer=self.name,
        )


def _assemble_log(
    name: str,
    addresses: np.ndarray,
    order: np.ndarray,
    start_cursor: int,
    round_starts: np.ndarray,
    spacing: float,
    k_arr: np.ndarray,
    pos_flag: np.ndarray,
) -> ObservationSeries:
    """Build a probe log from per-round probe counts, in one shot.

    Because the cursor never resets, probe ``i`` of the run targets
    ``order[(start_cursor + i) % m]``; a round's final probe is marked
    positive only when its reply survived loss (``pos_flag``).  Probe
    ``j`` of a round is sent at its start plus ``spacing`` added ``j``
    times in sequence, as the reference's repeated ``t += spacing`` —
    computed only for the rounds that sent that many probes.
    """
    total = int(k_arr.sum())
    walk = (start_cursor + np.arange(total, dtype=np.int64)) % order.size
    order_idx = order[walk]
    ends = np.cumsum(k_arr) - 1
    first = ends - k_arr + 1
    times = np.empty(total, dtype=np.float64)
    times[first] = t = round_starts
    rows = np.arange(k_arr.size)
    for j in range(1, int(k_arr.max(initial=0))):
        more = k_arr[rows] > j
        rows, t = rows[more], t[more] + spacing
        times[first[rows] + j] = t
    results = np.zeros(total, dtype=bool)
    results[ends[pos_flag]] = True
    return count_probe_volume(
        "trinocular",
        ObservationSeries(
            times=times,
            addresses=addresses[order_idx],
            results=results,
            observer=name,
        ),
    )


@dataclass(frozen=True, eq=False)
class ProbeLane:
    """One (block, observer) lane of :meth:`TrinocularObserver.observe_batch`.

    The fields are the arguments of :meth:`TrinocularObserver.observe`
    for that lane.
    """

    observer: TrinocularObserver
    truth: BlockTruth
    order: np.ndarray
    loss: LossModel | None = None
    rng: np.random.Generator | None = None
    start_s: float = 0.0
    duration_s: float | None = None
    start_cursor: int = 0

    def observe(self) -> ObservationSeries:
        """This lane probed on its own, through :meth:`TrinocularObserver.observe`."""
        return self.observer.observe(
            self.truth,
            self.order,
            self.loss,
            self.rng,
            start_s=self.start_s,
            duration_s=self.duration_s,
            start_cursor=self.start_cursor,
        )


#: Largest per-round probe limit the lockstep kernel runs: a table entry
#: plus a column-crossing offset must stay below 255 in a uint8.
_LOCKSTEP_MAX_PROBES = 127
#: Uniforms per refill of a lane's loss-draw stream (as in ``observe``).
_DRAW_CHUNK = 4096
#: Lane-rounds whose table offsets are planned at once (bounds the
#: round loop's working memory independently of window length).
_PLAN_CELLS = 1 << 16
#: Gap of a lane that never draws: more rounds than any window holds.
_NO_DRAWS = 1 << 40
#: Histogram buckets of the ``prober.batch.*`` meters (lanes, table bytes).
_LANE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
_BYTE_BUCKETS = tuple(float(1 << e) for e in range(10, 31, 2))


def _next_active_table(
    active: np.ndarray, order: np.ndarray, lo: int, hi: int, cap: int
) -> np.ndarray:
    """One block's next-active table over truth columns ``[lo, hi)``.

    Entry ``(c - lo) * m + x`` is the offset from cursor ``x`` (walking
    ``order`` circularly) to the first target active in column ``c``,
    capped at ``cap``.  Built with one reverse pass over the permuted
    rows in address-major order — ``v(x) = 0`` if ``x`` is active, else
    ``v(x + 1) + 1`` — then capped and transposed to column-major, so a
    round's lookup reads one byte.
    """
    m = order.size
    # 0x0000 where the target is active, 0xFFFF where it is not; uint16
    # holds every uncapped offset (< cap + 2m), so the cap is applied once
    inactive = np.logical_not(active[:, lo:hi][order]).view(np.uint8)
    keep = np.negative(inactive, dtype=np.uint16)
    # the circular walk from the last row wraps to row 0: seed the pass
    # with row 0's value, which only the first min(cap, m) rows decide
    prev = np.full(hi - lo, cap, dtype=np.uint16)
    for x in range(min(cap, m) - 1, -1, -1):
        prev += 1
        prev &= keep[x]
    nxt = np.empty_like(keep)
    for x in range(m - 1, -1, -1):
        row = nxt[x]
        np.add(prev, 1, out=row)
        row &= keep[x]
        prev = row
    table = np.empty((hi - lo, m), dtype=np.uint8)
    np.minimum(nxt.T, cap, out=table, casting="unsafe")
    return table.reshape(-1)


class _LossStream:
    """A lane's loss-draw stream, kept as its below-threshold exceptions.

    Only draws below ``maxp`` can lose a reply, so a 4096-draw chunk is
    stored as the indices and values of those draws; every other draw is
    known to let its reply through.
    """

    __slots__ = ("rng", "maxp", "p", "ev_idx", "ev_val", "ep")

    def __init__(
        self, rng: np.random.Generator, maxp: float, p: float | np.ndarray
    ) -> None:
        self.rng = rng
        self.maxp = maxp
        self.p = p
        self.refill()

    def refill(self) -> None:
        buf = self.rng.random(_DRAW_CHUNK)
        idx = np.flatnonzero(buf < self.maxp)
        self.ev_idx: list[int] = idx.tolist()
        self.ev_val: list[float] = buf[idx].tolist()
        self.ep = 0

    def next_event(self) -> int:
        """Index of the next possibly-lost draw (the chunk end if none)."""
        return self.ev_idx[self.ep] if self.ep < len(self.ev_idx) else _DRAW_CHUNK


@dataclass(frozen=True)
class _LanePlan:
    """A kernel lane's parameters, as :meth:`TrinocularObserver.observe` derives them."""

    lo: int  # first and one-past-last truth column the lane probes
    hi: int
    K: int  # per-round probe limit, min(max_probes_per_round, m)
    m: int
    cursor: int
    n_rounds: int
    base: float  # start_s + phase_offset_s
    round_s: float
    spacing: float
    end: float
    origin: float  # truth.col_times[0]
    inv: float  # 1 / truth.round_seconds
    cmax: int  # last truth column
    stream: _LossStream | None


class _Lockstep:
    """State of one :meth:`TrinocularObserver.observe_batch` call."""

    def __init__(self, lanes: Iterable[ProbeLane]) -> None:
        self._direct: dict[int, ProbeLane] = {}  # lanes run through observe
        self._slot: dict[int, int] = {}  # lane index -> kernel lane
        # per kernel lane: (observer name, E(b) addresses, order, start cursor)
        self._assembly: list[tuple[str, np.ndarray, np.ndarray, int]] = []
        plans: list[_LanePlan] = []
        block_of: list[int] = []  # kernel lane -> table
        tables: list[np.ndarray] = []
        block_lo: list[int] = []
        group: list[_LanePlan] = []
        group_lane: ProbeLane | None = None

        def flush() -> None:
            if group_lane is None:
                return
            lo = min(p.lo for p in group)
            tables.append(
                _next_active_table(
                    group_lane.truth.active,
                    group_lane.order,
                    lo,
                    max(p.hi for p in group),
                    max(p.K for p in group),
                )
            )
            block_lo.append(lo)
            group.clear()

        self.n_lanes = 0
        for i, lane in enumerate(lanes):
            self.n_lanes = i + 1
            plan = self._prepare(lane)
            if plan is None:
                self._direct[i] = lane
                continue
            if group_lane is not None and (
                lane.truth is not group_lane.truth or lane.order is not group_lane.order
            ):
                flush()
            if not group:
                group_lane = lane
            group.append(plan)
            self._slot[i] = len(plans)
            plans.append(plan)
            block_of.append(len(tables))
            self._assembly.append(
                (lane.observer.name, lane.truth.addresses, lane.order, lane.start_cursor)
            )
        flush()
        group_lane = lane = None  # the kernel keeps tables, not truths

        def ints(name: str) -> np.ndarray:
            return np.asarray([getattr(p, name) for p in plans], dtype=np.int64)

        def floats(name: str) -> np.ndarray:
            return np.asarray([getattr(p, name) for p in plans], dtype=np.float64)

        self.K, self.m, self.cur = ints("K"), ints("m"), ints("cursor")
        self.n_rounds, self.cmax = ints("n_rounds"), ints("cmax")
        self.base, self.round_s, self.spacing = floats("base"), floats("round_s"), floats("spacing")
        self.end, self.origin, self.inv = floats("end"), floats("origin"), floats("inv")
        self._loss = {slot: p.stream for slot, p in enumerate(plans) if p.stream is not None}
        # kernel lanes by per-round limit (for each round's last probe time)
        self._k_lanes = {int(k): np.flatnonzero(self.K == k) for k in np.unique(self.K)}
        offsets = np.cumsum([0] + [t.size for t in tables])
        block = np.asarray(block_of, dtype=np.int64)
        self.tab_off = offsets[block]
        self.lo = np.asarray(block_lo + [0], dtype=np.int64)[block]
        self.tab = np.empty(int(offsets[-1]), dtype=np.uint8)
        for off in offsets[:-1].tolist():
            table = tables.pop(0)  # release each block's table once copied
            self.tab[off : off + table.size] = table
        registry = get_registry()
        registry.histogram("prober.batch.lanes", buckets=_LANE_BUCKETS).observe(len(plans))
        registry.histogram("prober.batch.table_bytes", buckets=_BYTE_BUCKETS).observe(
            self.tab.nbytes
        )
        n_steps = int(self.n_rounds.max(initial=0))
        self.ks = np.zeros((n_steps, len(plans)), dtype=np.uint8)
        self.hits = np.zeros((n_steps, len(plans)), dtype=bool)
        if plans:
            self._run(n_steps)
        del self.tab

    @staticmethod
    def _prepare(lane: ProbeLane) -> _LanePlan | None:
        """A lane's kernel parameters, or None to run it through ``observe``.

        Mirrors the prologue of :meth:`TrinocularObserver.observe` and
        draws the lane's first uniform chunk as it does.
        """
        obs, truth = lane.observer, lane.truth
        m = int(lane.order.size)
        if m == 0 or truth.n_cols == 0:
            return None
        if m != truth.n_addresses:
            raise ValueError("order must permute the block's E(b) addresses")
        K = min(obs.max_probes_per_round, m)
        if not 1 <= K <= _LOCKSTEP_MAX_PROBES:
            return None
        start_s = lane.start_s
        duration_s = truth.duration_s - start_s if lane.duration_s is None else lane.duration_s
        end_s = start_s + duration_s
        round_s = obs.round_seconds
        n_rounds = max(int(np.ceil((end_s - start_s - obs.phase_offset_s) / round_s)), 0)
        round_starts = start_s + obs.phase_offset_s + np.arange(n_rounds) * round_s
        n_rounds = int(np.searchsorted(round_starts, end_s, side="left"))
        if n_rounds == 0:
            return None
        round_starts = round_starts[:n_rounds]
        loss = lane.loss or NoLoss()
        maxp = loss.max_probability()
        rng = lane.rng or np.random.default_rng(0)
        stream = None
        if maxp > 0:
            loss_p = loss.loss_probability(round_starts)
            if not loss_p.min() > 0.0:
                return None  # observe draws nothing in zero-probability rounds
            constant = bool(np.all(loss_p == loss_p[0]))
            stream = _LossStream(rng, maxp, float(loss_p[0]) if constant else loss_p)
        else:
            rng.random(_DRAW_CHUNK)  # observe fills its draw buffer regardless
        origin = float(truth.col_times[0])
        inv = 1.0 / truth.round_seconds
        cmax = truth.n_cols - 1
        last = float(round_starts[-1])
        for _ in range(K - 1):
            last += obs.probe_spacing_s
        return _LanePlan(
            lo=min(max(int((float(round_starts[0]) - origin) * inv), 0), cmax),
            hi=min(max(int((last - origin) * inv), 0), cmax) + 1,
            K=K,
            m=m,
            cursor=lane.start_cursor % m,
            n_rounds=n_rounds,
            base=start_s + obs.phase_offset_s,
            round_s=round_s,
            spacing=obs.probe_spacing_s,
            end=end_s,
            origin=origin,
            inv=inv,
            cmax=cmax,
            stream=stream,
        )

    # -- the round loop ----------------------------------------------------
    def _plan(
        self, s0: int, s1: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, list[np.ndarray | None]]:
        """Table offsets, probe budgets and column crossings of rounds [s0, s1).

        Returns ``(ib0, rem, jc, ib1, xrows)`` shaped ``[s1 - s0, lanes]``:
        ``ib0`` is the flat table offset of each round's first column,
        ``rem`` its probe budget (0 past a lane's last round), and — for
        rounds whose candidate probes cross into the next truth column —
        ``jc`` the first probe in the new column (255 elsewhere) with
        ``ib1`` that column's offset; ``xrows`` lists the crossing lanes
        per round.  The arithmetic repeats ``observe``'s operation for
        operation, so every column and budget is the same.
        """
        steps = np.arange(s0, s1, dtype=np.int64)[:, None]
        rs = self.base + steps * self.round_s
        valid = steps < self.n_rounds
        c0 = ((rs - self.origin) * self.inv).astype(np.int64)
        np.clip(c0, 0, self.cmax, out=c0)
        # last candidate probe of each round: the same sequential adds
        # as observe's cumsum, taken at each lane's own per-round limit
        t = rs.copy()
        last = rs.copy()
        for j in range(1, int(self.K.max())):
            t += self.spacing
            at = self._k_lanes.get(j + 1)
            if at is not None:
                last[:, at] = t[:, at]
        c_last = ((last - self.origin) * self.inv).astype(np.int64)
        np.clip(c_last, 0, self.cmax, out=c_last)
        cross = (c_last != c0) & valid
        rem = np.where(valid, self.K, 0).astype(np.uint8)
        jc = np.full(rem.shape, 255, dtype=np.uint8)
        ib1: np.ndarray | None = None
        odd_r, odd_l = np.nonzero(cross | (valid & (last >= self.end)))
        if odd_r.size:
            # rounds cut short by the window end or crossing a column:
            # their full candidate rows decide the budget and crossing
            k_odd = self.K[odd_l]
            width = int(k_odd.max())
            T = np.empty((odd_r.size, width), dtype=np.float64)
            T[:, 0] = rs[odd_r, odd_l]
            sp = self.spacing[odd_l]
            for j in range(1, width):
                np.add(T[:, j - 1], sp, out=T[:, j])
            in_k = np.arange(width)[None, :] < k_odd[:, None]
            n_time = ((T < self.end[odd_l, None]) & in_k).sum(axis=1)
            rem[odd_r, odd_l] = np.minimum(n_time, k_odd)
            C = ((T - self.origin[odd_l, None]) * self.inv[odd_l, None]).astype(np.int64)
            np.clip(C, 0, self.cmax[odd_l, None], out=C)
            jc_odd = ((C == C[:, :1]) & in_k).sum(axis=1)
            is_x = cross[odd_r, odd_l]
            xr, xl, jx = odd_r[is_x], odd_l[is_x], jc_odd[is_x]
            jc[xr, xl] = jx
            c1 = C[np.flatnonzero(is_x), jx]
            ib1 = np.zeros(rem.shape, dtype=np.int64)
            ib1[xr, xl] = self.tab_off[xl] + (c1 - self.lo[xl]) * self.m[xl]
        ib0 = np.where(valid, self.tab_off + (c0 - self.lo) * self.m, self.tab_off)
        xrows: list[np.ndarray | None] = [None] * (s1 - s0)
        if ib1 is not None:
            xr, xl = np.nonzero(cross)
            for r, lanes in zip(*_split_rows(xr, xl)):
                xrows[r] = lanes
        return ib0, rem, jc, ib1, xrows

    def _run(self, n_steps: int) -> None:
        """Advance every kernel lane one round per numpy step."""
        L = self.m.size
        tab, m, cur = self.tab, self.m, self.cur
        gap = np.full(L, _NO_DRAWS, dtype=np.int64)
        for slot, stream in self._loss.items():
            gap[slot] = stream.next_event()
        lossy = bool(self._loss)
        idx = np.empty(L, dtype=np.int64)
        d = np.empty(L, dtype=np.uint8)
        dk = np.empty(L, dtype=np.uint8)
        chunk = max(1, _PLAN_CELLS // L)
        for s0 in range(0, n_steps, chunk):
            s1 = min(n_steps, s0 + chunk)
            ib0, rem, jc, ib1, xrows = self._plan(s0, s1)
            for i in range(s1 - s0):
                np.add(ib0[i], cur, out=idx)
                tab.take(idx, out=d, mode="clip")
                xl = xrows[i]
                if xl is not None and ib1 is not None:
                    # no active target before the crossing: continue the
                    # walk in the next column from probe jc on
                    jx = jc[i, xl]
                    need = d[xl] >= jx
                    if need.any():
                        sel = xl[need]
                        js = jx[need].astype(np.int64)
                        pos = (cur[sel] + js) % m[sel]
                        d[sel] = tab[ib1[i, sel] + pos] + js
                rem_i = rem[i]
                k_row = self.ks[s0 + i]
                hit_row = self.hits[s0 + i]
                np.less(d, rem_i, out=hit_row)
                np.add(d, 1, out=dk)
                np.minimum(dk, rem_i, out=k_row)
                if lossy:
                    # a reply consumes one draw; a draw that may lose it
                    # (or the end of the chunk) drives the gap negative
                    np.subtract(gap, hit_row, out=gap)
                    if gap.min() < 0:
                        for slot in np.flatnonzero(gap < 0).tolist():
                            gap[slot] = self._loss_event(
                                slot, s0 + i, int(d[slot]), int(rem_i[slot]),
                                int(cur[slot]), int(ib0[i, slot]), int(jc[i, slot]),
                                0 if ib1 is None else int(ib1[i, slot]),
                            )
                np.add(cur, k_row, out=cur)
                np.remainder(cur, m, out=cur)

    def _loss_event(
        self, slot: int, step: int, j: int, rem: int, cur: int, ib0: int, jc: int, ib1: int
    ) -> int:
        """Scalar continuation of one lane's round from a reply at probe ``j``.

        Consumes draws exactly as ``observe``'s general branch does,
        records the round's probe count and outcome, and returns the
        lane's new gap to its next possibly-lost draw.
        """
        stream = self._loss[slot]
        p = stream.p if isinstance(stream.p, float) else float(stream.p[step])
        di = stream.next_event()
        m = int(self.m[slot])
        tab = self.tab
        hit = False
        while True:
            if di >= _DRAW_CHUNK:
                stream.refill()
                di = 0
            lost = False
            if stream.ep < len(stream.ev_idx) and stream.ev_idx[stream.ep] == di:
                lost = stream.ev_val[stream.ep] < p
                stream.ep += 1
            di += 1
            if not lost:
                hit = True
                j += 1
                break
            # the reply was lost: find the round's next active target
            j += 1
            if j < jc:
                j += int(tab[ib0 + (cur + j) % m])
                if j >= jc and jc < rem:
                    j = jc + int(tab[ib1 + (cur + jc) % m])
            elif j < rem:
                j += int(tab[ib1 + (cur + j) % m])
            if j >= rem:
                j = rem
                break
        self.ks[step, slot] = j
        self.hits[step, slot] = hit
        return stream.next_event() - di

    # -- output ----------------------------------------------------------
    def series(self, i: int) -> ObservationSeries:
        """Lane ``i``'s probe log (counted into the probe-volume meters)."""
        lane = self._direct.get(i)
        if lane is not None:
            return lane.observe()
        slot = self._slot[i]
        name, addresses, order, start_cursor = self._assembly[slot]
        n = int(self.n_rounds[slot])
        return _assemble_log(
            name,
            addresses,
            order,
            start_cursor,
            float(self.base[slot]) + np.arange(n) * float(self.round_s[slot]),
            float(self.spacing[slot]),
            self.ks[:n, slot].astype(np.int64),
            self.hits[:n, slot],
        )


def _split_rows(rows: np.ndarray, cols: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
    """Group row-major ``(rows, cols)`` index pairs by row."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows[starts].tolist(), np.split(cols, starts[1:])



@dataclass(frozen=True)
class AdditionalProber:
    """The §2.8 designed observer for under-observed blocks.

    Sends a *fixed* number of probes per round — up to four extra after a
    positive reply, capped at 8 per round (one probe per 88 s, half the
    prior rate limit) — sized so the whole E(b) is covered within
    ``target_scan_hours``.  Because the per-round count is deterministic,
    the whole observation is vectorized.
    """

    name: str = "a"
    phase_offset_s: float = 0.0
    round_seconds: float = 660.0
    target_scan_hours: float = 6.0
    max_probes_per_round: int = 8

    def probes_per_round(self, eb_size: int) -> int:
        """Probes each round so E(b) is scanned in the target time."""
        rounds_available = self.target_scan_hours * 3600.0 / self.round_seconds
        needed = int(np.ceil(eb_size / max(rounds_available, 1.0)))
        return int(np.clip(needed, 1, min(self.max_probes_per_round, max(eb_size, 1))))

    def observe(
        self,
        truth: BlockTruth,
        order: np.ndarray,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        *,
        start_s: float = 0.0,
        duration_s: float | None = None,
        start_cursor: int = 0,
    ) -> ObservationSeries:
        loss = loss or NoLoss()
        rng = rng or np.random.default_rng(0)
        if duration_s is None:
            duration_s = truth.duration_s - start_s
        end_s = start_s + duration_s

        m = int(order.size)
        if m == 0:
            return ObservationSeries(
                times=np.array([]),
                addresses=np.array([], dtype=np.int16),
                results=np.array([], dtype=bool),
                observer=self.name,
            )
        per_round = self.probes_per_round(m)
        spacing = self.round_seconds / max(per_round, 1)

        n_rounds = int(np.ceil((end_s - start_s - self.phase_offset_s) / self.round_seconds))
        n_rounds = max(n_rounds, 0)
        total = n_rounds * per_round
        pos = np.arange(total, dtype=np.int64)
        t = (
            start_s
            + self.phase_offset_s
            + (pos // per_round) * self.round_seconds
            + (pos % per_round) * spacing
        )
        keep = t < end_s
        pos, t = pos[keep], t[keep]

        order_idx = order[(start_cursor + pos) % m]
        col_origin = float(truth.col_times[0]) if truth.n_cols else 0.0
        cols = np.clip(
            ((t - col_origin) / truth.round_seconds).astype(np.int64), 0, truth.n_cols - 1
        )
        states = truth.active[order_idx, cols]
        if loss.max_probability() > 0:
            lost = rng.random(t.size) < loss.loss_probability(t)
            states = states & ~lost
        return count_probe_volume(
            "additional",
            ObservationSeries(
                times=t,
                addresses=truth.addresses[order_idx],
                results=states,
                observer=self.name,
            ),
        )
