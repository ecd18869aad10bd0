"""Address reconstruction: from probe logs to active-address counts.

Implements §2.3: observers scan incrementally, so we accumulate the last
observed state of every E(b) address ("addresses do not change state
until they are re-scanned") and emit the estimated active count over
time.  The estimate is undefined (NaN) until every E(b) address has been
observed at least once — only then is the reconstruction *complete*
(paper Figure 2: the first round with no output).

Also computes full-block-scan (FBS) times — how long the probe stream
takes to touch every E(b) address — the quantity behind §3.1 and
Figures 3 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..net.observations import ObservationSeries
from ..timeseries.series import TimeSeries

__all__ = [
    "Reconstruction",
    "reconstruct",
    "full_scan_durations",
    "full_scan_durations_reference",
]


@dataclass(frozen=True)
class Reconstruction:
    """Active-address estimate for one block.

    ``counts`` is sampled on the requested grid; samples before the first
    complete scan are NaN.  ``complete_time_s`` is NaN when some E(b)
    address was never probed within the observation window.
    """

    counts: TimeSeries
    complete_time_s: float
    eb_size: int
    observed_addresses: np.ndarray

    @property
    def is_complete(self) -> bool:
        return bool(np.isfinite(self.complete_time_s))

    @property
    def max_count(self) -> float:
        good = ~np.isnan(self.counts.values)
        return float(self.counts.values[good].max()) if good.any() else float("nan")


def reconstruct(
    observations: ObservationSeries,
    eb_addresses: np.ndarray,
    sample_times: np.ndarray,
) -> Reconstruction:
    """Hold-last-state reconstruction of the active-address count.

    Parameters
    ----------
    observations:
        Time-ordered probe log (single observer or merged, §2.7).
    eb_addresses:
        The block's ever-active list E(b) (last octets).  Addresses probed
        but absent from E(b) are ignored; reconstruction is complete only
        when all of E(b) has been seen.
    sample_times:
        Grid (seconds since epoch) on which to emit the estimate.
    """
    eb = np.asarray(eb_addresses)
    sample_times = np.asarray(sample_times, dtype=np.float64)
    m = eb.size

    if observations.is_empty or m == 0:
        return Reconstruction(
            counts=TimeSeries(sample_times, np.full(sample_times.size, np.nan)),
            complete_time_s=float("nan"),
            eb_size=m,
            observed_addresses=np.array([], dtype=eb.dtype),
        )

    in_eb = np.isin(observations.addresses, eb)
    times = observations.times[in_eb]
    addrs = observations.addresses[in_eb]
    results = observations.results[in_eb].astype(np.int8)

    if times.size == 0:
        return Reconstruction(
            counts=TimeSeries(sample_times, np.full(sample_times.size, np.nan)),
            complete_time_s=float("nan"),
            eb_size=m,
            observed_addresses=np.array([], dtype=eb.dtype),
        )

    # group probes by address, preserving time order within each group
    order = np.argsort(addrs, kind="stable")
    g_times = times[order]
    g_addrs = addrs[order]
    g_results = results[order]
    new_group = np.empty(g_addrs.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = g_addrs[1:] != g_addrs[:-1]

    # per-address state deltas: first probe sets state from 0, later
    # probes change the count only when the observed state flips
    prev = np.empty_like(g_results)
    prev[0] = 0
    prev[1:] = g_results[:-1]
    prev[new_group] = 0
    deltas = g_results - prev
    keep = deltas != 0

    event_times = g_times[keep]
    event_deltas = deltas[keep]
    ev_order = np.argsort(event_times, kind="stable")
    event_times = event_times[ev_order]
    cum = np.cumsum(event_deltas[ev_order])

    # count at each sample time: last cumulative value at or before it
    if event_times.size:
        idx = np.searchsorted(event_times, sample_times, side="right") - 1
        values = np.where(idx >= 0, cum[np.maximum(idx, 0)], 0).astype(np.float64)
    else:
        # every probe agreed with the initial all-inactive state
        values = np.zeros(sample_times.size, dtype=np.float64)

    # completeness: every E(b) address seen at least once
    observed = np.unique(g_addrs)
    if observed.size >= m:
        first_seen = g_times[new_group]
        complete_time = float(first_seen.max())
        values[sample_times < complete_time] = np.nan
    else:
        complete_time = float("nan")
        values[:] = np.nan

    return Reconstruction(
        counts=TimeSeries(sample_times, values),
        complete_time_s=complete_time,
        eb_size=m,
        observed_addresses=observed,
    )


def full_scan_durations(
    observations: ObservationSeries,
    eb_addresses: np.ndarray,
    *,
    max_scans: int | None = None,
) -> np.ndarray:
    """Durations of successive full scans of E(b) (Figure 3's statistic).

    A scan starting at probe ``i`` completes at the first later probe by
    which every E(b) address has been touched; the next scan starts at
    the following probe.  Returns an empty array when E(b) is never fully
    covered.

    Vectorized: one stable argsort groups probes by address, giving each
    probe its previous same-address index ``prev[j]``.  A scan starting
    at ``i0`` completes at ``max{j >= i0 : prev[j] < i0}`` — the latest
    first-occurrence-in-suffix over all addresses — found with a single
    mask over the suffix per scan instead of one ``searchsorted`` per
    address (the O(A·N) occurrence-dict build disappears entirely).
    :func:`full_scan_durations_reference` keeps the scalar walk as the
    oracle; results are identical.
    """
    eb = np.asarray(eb_addresses)
    if observations.is_empty or eb.size == 0:
        return np.array([], dtype=np.float64)

    in_eb = np.isin(observations.addresses, eb)
    times = observations.times[in_eb]
    addrs = observations.addresses[in_eb]
    if times.size == 0:
        return np.array([], dtype=np.float64)

    uniq, inverse = np.unique(addrs, return_inverse=True)
    n_eb = np.unique(eb).size
    if uniq.size < n_eb:  # some E(b) address is never probed at all
        return np.array([], dtype=np.float64)

    # prev[j] = index of the previous probe of the same address, or -1;
    # probe j is its address's first occurrence in [i0, n) iff prev[j] < i0
    n = times.size
    grouped = np.argsort(inverse, kind="stable")
    gaddr = inverse[grouped]
    prev = np.empty(n, dtype=np.int64)
    prev[grouped[0]] = -1
    prev[grouped[1:]] = np.where(gaddr[1:] == gaddr[:-1], grouped[:-1], -1)

    durations: list[float] = []
    i0 = 0
    while i0 < n:
        firsts = np.flatnonzero(prev[i0:] < i0)  # one per address in the suffix
        if firsts.size < n_eb:  # some address never re-appears: incomplete scan
            break
        end = i0 + int(firsts[-1])
        durations.append(float(times[end] - times[i0]))
        i0 = end + 1
        if max_scans is not None and len(durations) >= max_scans:
            break
    return np.asarray(durations, dtype=np.float64)


def full_scan_durations_reference(
    observations: ObservationSeries,
    eb_addresses: np.ndarray,
    *,
    max_scans: int | None = None,
) -> np.ndarray:
    """Scalar-walk oracle for :func:`full_scan_durations` (tests only)."""
    eb = np.asarray(eb_addresses)
    if observations.is_empty or eb.size == 0:
        return np.array([], dtype=np.float64)

    in_eb = np.isin(observations.addresses, eb)
    times = observations.times[in_eb]
    addrs = observations.addresses[in_eb]
    if times.size == 0:
        return np.array([], dtype=np.float64)

    # per-address sorted probe indices
    occurrences = {int(a): np.flatnonzero(addrs == a) for a in eb}
    if any(occ.size == 0 for occ in occurrences.values()):
        return np.array([], dtype=np.float64)

    durations: list[float] = []
    i0 = 0
    n = times.size
    while i0 < n:
        end = -1
        for occ in occurrences.values():
            k = int(np.searchsorted(occ, i0, side="left"))
            if k >= occ.size:
                end = -1
                break
            end = max(end, int(occ[k]))
        if end < 0:
            break
        durations.append(float(times[end] - times[i0]))
        i0 = end + 1
        if max_scans is not None and len(durations) >= max_scans:
            break
    return np.asarray(durations, dtype=np.float64)
