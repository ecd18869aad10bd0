"""1-loss repair: mitigating congestive probe loss (§2.3, §3.3).

Reconstruction interprets a non-reply as "inactive until re-probed", so a
single lost query can erase an address for a full scan cycle.  1-loss
repair (from the Internet-survey methodology, [49] §3.5) replaces the
per-address pattern reply/non-reply/reply (101) with 111 — the better
explanation for an isolated non-reply between replies is a lost packet,
not a sub-round dip in usage.  Patterns 001, 110, 100 etc. are left
untouched, so genuine state changes survive.

Repair is applied per observer, before merging: loss happens on an
observer's own path, and the pattern test is only meaningful within one
probe stream.
"""

from __future__ import annotations

import numpy as np

from ..net.observations import ObservationSeries

__all__ = ["one_loss_repair", "repaired_fraction"]


def _repair_mask(addresses: np.ndarray, results: np.ndarray) -> np.ndarray:
    """Boolean mask of probes to flip from 0 to 1 (time-ordered input)."""
    order = np.argsort(addresses, kind="stable")
    a = addresses[order]
    r = results[order]

    same_prev = np.zeros(a.size, dtype=bool)
    same_next = np.zeros(a.size, dtype=bool)
    same_prev[1:] = a[1:] == a[:-1]
    same_next[:-1] = a[:-1] == a[1:]

    pattern = np.zeros(a.size, dtype=bool)
    if a.size >= 3:
        pattern[1:-1] = (
            ~r[1:-1]
            & r[:-2]
            & r[2:]
            & same_prev[1:-1]
            & same_next[1:-1]
        )

    mask = np.zeros(a.size, dtype=bool)
    mask[order] = pattern
    return mask


def one_loss_repair(observations: ObservationSeries) -> ObservationSeries:
    """Return a copy of the probe log with isolated non-replies repaired."""
    if len(observations) < 3:
        return observations
    mask = _repair_mask(observations.addresses, observations.results)
    if not mask.any():
        return observations
    repaired = observations.results.copy()
    repaired[mask] = True
    return observations.with_results(repaired)


def repaired_fraction(observations: ObservationSeries) -> float:
    """Fraction of probes 1-loss repair would flip (a loss diagnostic)."""
    if len(observations) < 3:
        return 0.0
    return float(_repair_mask(observations.addresses, observations.results).mean())
