"""Unit tests for the monitors (repro.sim.monitor)."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.sim.monitor import (
    DecayedMean,
    DecayedRate,
    MeanTally,
    Tally,
    TimeWeighted,
)


class TestTally:
    def test_empty_tally(self):
        tally = Tally("t")
        assert tally.count == 0
        assert math.isnan(tally.mean)
        assert math.isnan(tally.variance)

    def test_single_observation(self):
        tally = Tally()
        tally.observe(5.0)
        assert tally.count == 1
        assert tally.mean == 5.0
        assert math.isnan(tally.variance)  # undefined with one point
        assert tally.min == tally.max == 5.0

    def test_mean_and_variance_match_statistics_module(self):
        values = [3.1, -2.0, 5.5, 0.0, 7.25, 1.125]
        tally = Tally()
        for v in values:
            tally.observe(v)
        assert tally.mean == pytest.approx(statistics.fmean(values))
        assert tally.variance == pytest.approx(statistics.variance(values))
        assert tally.stdev == pytest.approx(statistics.stdev(values))

    def test_total_min_max(self):
        tally = Tally()
        for v in (2.0, -1.0, 4.0):
            tally.observe(v)
        assert tally.total == 5.0
        assert tally.min == -1.0
        assert tally.max == 4.0

    def test_reset_clears_everything(self):
        tally = Tally()
        tally.observe(1.0)
        tally.reset()
        assert tally.count == 0
        assert math.isnan(tally.mean)
        assert tally.total == 0.0

    def test_merge_matches_pooled_statistics(self):
        xs = [1.0, 2.0, 3.0]
        ys = [10.0, 20.0, 30.0, 40.0]
        a, b = Tally(), Tally()
        for x in xs:
            a.observe(x)
        for y in ys:
            b.observe(y)
        a.merge(b)
        pooled = xs + ys
        assert a.count == len(pooled)
        assert a.mean == pytest.approx(statistics.fmean(pooled))
        assert a.variance == pytest.approx(statistics.variance(pooled))
        assert a.min == 1.0
        assert a.max == 40.0

    def test_merge_empty_into_full(self):
        a, b = Tally(), Tally()
        a.observe(3.0)
        a.merge(b)
        assert a.count == 1
        assert a.mean == 3.0

    def test_merge_full_into_empty(self):
        a, b = Tally(), Tally()
        b.observe(3.0)
        b.observe(5.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == 4.0

    def test_repr(self):
        tally = Tally("demo")
        tally.observe(1.0)
        tally.observe(2.0)
        assert "demo" in repr(tally)


class TestTimeWeighted:
    def test_piecewise_constant_mean(self):
        signal = TimeWeighted(initial=0.0, start_time=0.0)
        signal.update(1.0, now=2.0)   # 0 over [0, 2)
        signal.update(0.0, now=5.0)   # 1 over [2, 5)
        assert signal.mean_at(10.0) == pytest.approx(0.3)

    def test_value_tracks_updates(self):
        signal = TimeWeighted(initial=2.0)
        signal.update(7.0, now=1.0)
        assert signal.value == 7.0

    def test_increment(self):
        signal = TimeWeighted(initial=0.0)
        signal.increment(+1, now=1.0)
        signal.increment(+1, now=2.0)
        signal.increment(-1, now=3.0)
        assert signal.value == 1.0
        # area: 0*1 + 1*1 + 2*1 = 3 over [0, 3]
        assert signal.mean_at(3.0) == pytest.approx(1.0)

    def test_min_max(self):
        signal = TimeWeighted(initial=5.0)
        signal.update(2.0, now=1.0)
        signal.update(9.0, now=2.0)
        assert signal.min == 2.0
        assert signal.max == 9.0

    def test_time_backwards_rejected(self):
        signal = TimeWeighted()
        signal.update(1.0, now=5.0)
        with pytest.raises(ValueError):
            signal.update(2.0, now=4.0)

    def test_mean_before_start_is_nan(self):
        signal = TimeWeighted(start_time=10.0)
        assert math.isnan(signal.mean_at(10.0))

    def test_reset_restarts_accumulation(self):
        signal = TimeWeighted(initial=0.0)
        signal.update(1.0, now=10.0)
        signal.reset(now=10.0)
        # Value (1.0) persists; history does not.
        assert signal.value == 1.0
        assert signal.mean_at(20.0) == pytest.approx(1.0)

    def test_busy_fraction_usage(self):
        """The utilization idiom used by Node."""
        busy = TimeWeighted(initial=0.0)
        busy.update(1, now=1.0)   # serve [1, 3)
        busy.update(0, now=3.0)
        busy.update(1, now=4.0)   # serve [4, 5)
        busy.update(0, now=5.0)
        assert busy.mean_at(10.0) == pytest.approx(0.3)


class TestDecayedMean:
    def test_empty_is_nan(self):
        assert math.isnan(DecayedMean(tau=10.0).value)

    def test_single_observation_is_exact(self):
        mean = DecayedMean(tau=10.0)
        mean.observe(4.0, now=1.0)
        assert mean.value == 4.0

    def test_simultaneous_observations_average_plainly(self):
        mean = DecayedMean(tau=10.0)
        mean.observe(2.0, now=1.0)
        mean.observe(4.0, now=1.0)
        assert mean.value == pytest.approx(3.0)

    def test_recent_regime_dominates(self):
        mean = DecayedMean(tau=5.0)
        for t in range(100):
            mean.observe(0.0, now=float(t))
        for t in range(100, 160):
            mean.observe(10.0, now=float(t))
        # 60 time units = 12 tau after the regime change: old zeros are gone.
        assert mean.value > 9.9

    def test_mean_invariant_under_pure_decay(self):
        mean = DecayedMean(tau=2.0)
        mean.observe(7.0, now=0.0)
        # A long silence shrinks the weight but not the mean itself.
        assert mean.weight_at(100.0) < 1e-10
        assert mean.value == 7.0

    def test_weight_decays_exponentially(self):
        mean = DecayedMean(tau=10.0)
        mean.observe(1.0, now=0.0)
        assert mean.weight_at(10.0) == pytest.approx(math.exp(-1.0))

    def test_time_backwards_rejected(self):
        mean = DecayedMean(tau=1.0)
        mean.observe(1.0, now=5.0)
        with pytest.raises(ValueError):
            mean.observe(1.0, now=4.0)

    def test_reset_forgets(self):
        mean = DecayedMean(tau=1.0)
        mean.observe(3.0, now=1.0)
        mean.reset(now=2.0)
        assert math.isnan(mean.value)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            DecayedMean(tau=0.0)


class TestDecayedRate:
    def test_empty_rate_is_zero(self):
        assert DecayedRate(tau=10.0).rate_at(5.0) == 0.0

    def test_steady_stream_converges_to_true_rate(self):
        # Deterministic rate-2 stream: one tick every 0.5 time units.
        rate = DecayedRate(tau=10.0)
        t = 0.0
        for _ in range(400):
            t += 0.5
            rate.tick(t)
        assert rate.rate_at(t) == pytest.approx(2.0, rel=0.06)

    def test_rate_decays_after_stream_stops(self):
        rate = DecayedRate(tau=5.0)
        for t in range(1, 100):
            rate.tick(float(t))
        at_stop = rate.rate_at(99.0)
        assert rate.rate_at(99.0 + 5.0) == pytest.approx(
            at_stop * math.exp(-1.0)
        )

    def test_weighted_ticks(self):
        a = DecayedRate(tau=10.0)
        b = DecayedRate(tau=10.0)
        a.tick(1.0, weight=3.0)
        for _ in range(3):
            b.tick(1.0)
        assert a.rate_at(2.0) == b.rate_at(2.0)

    def test_time_backwards_rejected(self):
        rate = DecayedRate(tau=1.0)
        rate.tick(5.0)
        with pytest.raises(ValueError):
            rate.tick(4.0)

    def test_reset_forgets(self):
        rate = DecayedRate(tau=1.0)
        rate.tick(1.0)
        rate.reset(now=2.0)
        assert rate.rate_at(3.0) == 0.0

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            DecayedRate(tau=-1.0)


class TestMeanTallyStillMatchesTally:
    def test_mean_bit_identical_to_tally(self):
        tally = Tally("t")
        mean = MeanTally("m")
        values = [1.5, -2.25, 7.0, 0.125, 3.875, 2.0]
        for value in values:
            tally.observe(value)
            mean.observe(value)
        assert mean.mean == tally.mean


def test_sim_package_exports_resolve():
    """Every name ``repro.sim`` lists in ``__all__`` exists; the removed
    ``Series`` monitor is gone from both the package and the module."""
    import repro.sim
    from repro.sim import monitor

    for name in repro.sim.__all__:
        assert hasattr(repro.sim, name), name
    assert "Series" not in repro.sim.__all__
    assert not hasattr(repro.sim, "Series")
    assert not hasattr(monitor, "Series")
