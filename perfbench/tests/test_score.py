"""The WFH ground-truth scorer on a hand-built two-block case."""

from datetime import date

import pytest

from repro.core.changes import ChangeEvent
from repro.net.addresses import BlockAddress
from repro.net.events import WorkFromHome
from repro.net.geo import WORLD_CITIES, GeoInfo
from repro.net.world import BlockSpec

from score import TOLERANCE_DAYS, score_wfh

EPOCH = date(2020, 1, 1)
WFH = date(2020, 3, 9)
WFH_DAY = (WFH - EPOCH).days
DAY = 86_400.0
ROME = next(c for c in WORLD_CITIES if c.country == "Italy")


def _spec(index: int, *, adopted: bool) -> BlockSpec:
    return BlockSpec(
        block=BlockAddress.from_index(index),
        city=ROME,
        geo=GeoInfo(lat=ROME.lat, lon=ROME.lon, country="Italy", continent=ROME.continent, city=ROME.name),
        kind="workplace",
        seed=index,
        events=(WorkFromHome(start=WFH),) if adopted else (),
    )


def _drop(day: float) -> ChangeEvent:
    """A downward human-candidate change whose onset-to-alarm midpoint is ``day``."""
    return ChangeEvent(
        time_s=(day + 0.25) * DAY,
        start_s=(day - 0.25) * DAY,
        end_s=(day + 3) * DAY,
        direction=-1,
        magnitude=-4.0,
        cause="human-candidate",
    )


def _score(blocks):
    return score_wfh(
        blocks, wfh_dates={"Italy": WFH}, epoch=EPOCH, first_day=0, n_days=84
    )


def test_one_true_positive_and_one_false_positive():
    adopted, unaffected = _spec(1, adopted=True), _spec(2, adopted=False)
    score = _score([(adopted, (_drop(WFH_DAY + 1.5),)), (unaffected, (_drop(WFH_DAY - 2.5),))])
    assert (score.relevant, score.true_pos, score.false_pos) == (1, 1, 1)
    assert score.recall == 1.0
    assert score.precision == 0.5
    assert score.onset_err_days == pytest.approx(1.5)


def test_detection_outside_tolerance_is_a_miss():
    late = WFH_DAY + TOLERANCE_DAYS + 1.5
    score = _score([(_spec(1, adopted=True), (_drop(late),)), (_spec(2, adopted=False), ())])
    assert (score.relevant, score.true_pos, score.false_pos) == (1, 0, 0)
    assert score.recall == 0.0


def test_wfh_outside_the_window_is_not_scored():
    score = score_wfh(
        [(_spec(1, adopted=True), (_drop(WFH_DAY),))],
        wfh_dates={"Italy": WFH},
        epoch=EPOCH,
        first_day=0,
        n_days=WFH_DAY + 1,  # the WFH day is the window's last day
    )
    assert (score.relevant, score.true_pos, score.false_pos) == (0, 0, 0)
