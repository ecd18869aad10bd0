"""Ground-truth scoring of work-from-home detection (paper Table 5's rule).

The synthetic world knows which blocks adopted their country's WFH
(``BlockSpec.events`` holds a ``WorkFromHome``) and when
(``Scenario.wfh_dates``).  Table 5 counts a change-sensitive block as
detecting WFH when it has a downward human-candidate change within
±4 days of its country's WFH date; here the rule is applied to every
change-sensitive block of a run instead of a sample.

Only blocks whose country's WFH date falls inside the analysis window
(Table 5: ``first_day <= wfh_day < last_day``) are scored; the others are
Table 5's "no WFH in quarter" bucket.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping, Sequence

from repro.core.changes import ChangeEvent
from repro.net.events import WorkFromHome
from repro.net.world import BlockSpec

__all__ = ["TOLERANCE_DAYS", "WfhScore", "score_wfh"]

TOLERANCE_DAYS = 4
_DAY_S = 86_400.0


@dataclass(frozen=True)
class WfhScore:
    """Detection quality over one run's change-sensitive blocks."""

    relevant: int  # CS blocks that really adopted WFH inside the window
    true_pos: int  # ... of which detected within tolerance
    false_pos: int  # in-tolerance detections on blocks without the event
    onset_errors: tuple[float, ...]  # |detection - WFH day| per true positive

    @property
    def recall(self) -> float:
        return self.true_pos / self.relevant if self.relevant else math.nan

    @property
    def precision(self) -> float:
        found = self.true_pos + self.false_pos
        return self.true_pos / found if found else math.nan

    @property
    def onset_err_days(self) -> float:
        """Median onset error in days (fractional: detection midpoints)."""
        return statistics.median(self.onset_errors) if self.onset_errors else math.nan


def score_wfh(
    blocks: Iterable[tuple[BlockSpec, Sequence[ChangeEvent]]],
    *,
    wfh_dates: Mapping[str, date],
    epoch: date,
    first_day: int,
    n_days: int,
) -> WfhScore:
    """Score ``(spec, downward human-candidate changes)`` of each CS block.

    ``first_day``/``n_days`` give the analysis window as world day
    indices.  A detection's day is :attr:`ChangeEvent.day` (the tolerance
    test, as in Table 5); its onset error is measured from the
    onset-to-alarm midpoint in fractional days to the start of the WFH
    day, taking the in-tolerance detection nearest the WFH date.
    """
    relevant = true_pos = false_pos = 0
    errors: list[float] = []
    for spec, changes in blocks:
        wfh_date = wfh_dates.get(spec.city.country)
        if wfh_date is None:
            continue
        wfh_day = (wfh_date - epoch).days
        if not first_day <= wfh_day < first_day + n_days - 1:
            continue
        adopted = any(isinstance(e, WorkFromHome) for e in spec.events)
        near = [
            e for e in changes if e.is_downward and abs(e.day - wfh_day) <= TOLERANCE_DAYS
        ]
        relevant += int(adopted)
        if not near:
            continue
        if adopted:
            true_pos += 1
            errors.append(
                min(abs((e.start_s + e.time_s) / 2 / _DAY_S - wfh_day) for e in near)
            )
        else:
            false_pos += 1
    return WfhScore(
        relevant=relevant,
        true_pos=true_pos,
        false_pos=false_pos,
        onset_errors=tuple(errors),
    )
