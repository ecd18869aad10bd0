"""Tests for builder observer styles."""

from __future__ import annotations

import pickle

import pytest

from repro.datasets.builder import DatasetBuilder
from repro.net.world import WorldModel, scenario_covid2020


@pytest.fixture(scope="module")
def world():
    return WorldModel(scenario_covid2020(), n_blocks=30, seed=91, diurnal_boost=3.0)


class TestObserverStyles:
    def test_unknown_style_rejected(self, world):
        with pytest.raises(ValueError, match="observer_style"):
            DatasetBuilder(world, observer_style="psychic")

    def test_bayesian_style_builds_bayesian_observers(self, world):
        from repro.net.bayesian import BayesianTrinocularObserver

        builder = DatasetBuilder(world, observer_style="bayesian")
        assert all(
            isinstance(obs, BayesianTrinocularObserver)
            for obs in builder.observers.values()
        )

    def test_styles_agree_on_classification(self, world):
        """Adaptive and Bayesian probing classify blocks alike (the
        paper's simplification holds at the funnel level)."""
        spec = next(
            s for s in world.blocks if s.kind in ("pool", "workplace", "home")
        )
        adaptive = DatasetBuilder(world, observer_style="adaptive")
        bayes = DatasetBuilder(world, observer_style="bayesian")
        a = adaptive.analyze_block(spec, "2020m1-ejnw")
        b = bayes.analyze_block(spec, "2020m1-ejnw")
        assert a.classification.responsive == b.classification.responsive
        assert a.classification.is_diurnal == b.classification.is_diurnal

    def test_bayesian_probes_cheaper(self, world):
        spec = next(s for s in world.blocks if s.kind == "churn")
        adaptive = DatasetBuilder(world, observer_style="adaptive")
        bayes = DatasetBuilder(world, observer_style="bayesian")
        start = 92 * 86_400.0
        a = adaptive.observe(spec, "e", start, 7 * 86_400.0)
        b = bayes.observe(spec, "e", start, 7 * 86_400.0)
        assert len(b) <= len(a)


DAY = 86_400.0


class TestRequestsAreHistoryFree:
    """A builder's answer for a window never depends on earlier requests."""

    @pytest.mark.parametrize("style", ["adaptive", "bayesian"])
    def test_observe_ignores_earlier_windows(self, world, style):
        warm = DatasetBuilder(world, observer_style=style)
        for spec in [s for s in world.blocks if s.responsive_by_design][:8]:
            warm.observe(spec, "e", 8 * DAY, 10 * DAY)
            again = warm.observe(spec, "e", 10 * DAY, 5 * DAY)
            fresh = DatasetBuilder(world, observer_style=style).observe(
                spec, "e", 10 * DAY, 5 * DAY
            )
            assert len(fresh) > 0
            assert pickle.dumps(again) == pickle.dumps(fresh)

    def test_truth_ignores_earlier_windows(self, world):
        warm = DatasetBuilder(world)
        for spec in [s for s in world.blocks if s.responsive_by_design][:8]:
            warm.truth(spec, 0.0, 30 * DAY)
            again = warm.truth(spec, 10 * DAY, 5 * DAY)
            fresh = DatasetBuilder(world).truth(spec, 10 * DAY, 5 * DAY)
            assert pickle.dumps(again) == pickle.dumps(fresh)

    def test_truth_is_the_window(self, world):
        spec = next(s for s in world.blocks if s.responsive_by_design)
        truth = DatasetBuilder(world).truth(spec, 10 * DAY, 5 * DAY)
        assert truth.column_of(10 * DAY) == 0
        assert truth.col_times[0] <= 10 * DAY < truth.col_times[0] + 660.0
        assert truth.col_times[-1] < 15 * DAY
