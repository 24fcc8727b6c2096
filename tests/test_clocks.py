"""Unit and property-based tests: drifting clocks."""

import pytest
from hypothesis import given, strategies as st

from repro.clocks import DriftingClock, PERFECT_CLOCK, extremal_clock, random_clock
from repro.errors import ClockError
from repro.sim.rng import RngRegistry


class TestBasics:
    def test_perfect_clock_is_identity(self):
        assert PERFECT_CLOCK.local_time(5.0) == 5.0
        assert PERFECT_CLOCK.global_time(5.0) == 5.0

    def test_fast_clock_reads_ahead(self):
        clock = DriftingClock(rate=1.1)
        assert clock.local_time(10.0) == pytest.approx(11.0)

    def test_skew_offsets_reading(self):
        clock = DriftingClock(rate=1.0, skew=3.0)
        assert clock.local_time(0.0) == 3.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ClockError):
            DriftingClock(rate=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ClockError):
            DriftingClock(rate=-1.0)

    def test_durations(self):
        clock = DriftingClock(rate=2.0)
        assert clock.local_duration(5.0) == 10.0
        assert clock.global_duration(10.0) == 5.0

    def test_within_bound(self):
        assert DriftingClock(rate=1.05).within_bound(0.05)
        assert not DriftingClock(rate=1.06).within_bound(0.05)

    def test_drift_from_nominal(self):
        def drift_from_nominal(clock):
            return abs(clock.rate - 1.0)

        assert drift_from_nominal(DriftingClock(rate=0.97)) == pytest.approx(0.03)


class TestFactories:
    def test_extremal_fast_and_slow(self):
        assert extremal_clock(0.1, fast=True).rate == pytest.approx(1.1)
        assert extremal_clock(0.1, fast=False).rate == pytest.approx(0.9)

    def test_extremal_rejects_bad_rho(self):
        with pytest.raises(ClockError):
            extremal_clock(1.0, fast=True)

    def test_random_clock_within_bounds(self):
        rng = RngRegistry(3).stream("clock")
        for _ in range(50):
            clock = random_clock(rng, rho=0.05, max_skew=2.0)
            assert 0.95 <= clock.rate <= 1.05
            assert -2.0 <= clock.skew <= 2.0

    def test_random_clock_rejects_negative_skew_bound(self):
        rng = RngRegistry(3).stream("clock")
        with pytest.raises(ClockError):
            random_clock(rng, rho=0.01, max_skew=-1.0)

    def test_random_clock_rejects_rho_out_of_range(self):
        rng = RngRegistry(3).stream("clock")
        with pytest.raises(ClockError):
            random_clock(rng, rho=1.0)


@given(
    rate=st.floats(min_value=0.5, max_value=2.0),
    skew=st.floats(min_value=-100, max_value=100),
    t=st.floats(min_value=0, max_value=1e6),
)
def test_round_trip_local_global(rate, skew, t):
    """global_time(local_time(t)) == t up to float error."""
    clock = DriftingClock(rate=rate, skew=skew)
    assert clock.global_time(clock.local_time(t)) == pytest.approx(t, abs=1e-6, rel=1e-9)


@given(
    rate=st.floats(min_value=0.5, max_value=2.0),
    t1=st.floats(min_value=0, max_value=1e6),
    dt=st.floats(min_value=0.001, max_value=1e3),
)
def test_local_time_is_monotone(rate, t1, dt):
    """A clock never runs backwards."""
    clock = DriftingClock(rate=rate)
    assert clock.local_time(t1 + dt) > clock.local_time(t1)


@given(
    rho=st.floats(min_value=0.0, max_value=0.5),
    duration=st.floats(min_value=0.001, max_value=1e4),
)
def test_drift_bound_brackets_real_duration(rho, duration):
    """A local window of w elapses in real time within [w/(1+rho), w/(1-rho)]."""
    fast = extremal_clock(rho, fast=True)
    slow = extremal_clock(rho, fast=False)
    assert fast.global_duration(duration) == pytest.approx(duration / (1 + rho))
    assert slow.global_duration(duration) == pytest.approx(duration / (1 - rho))
    assert fast.global_duration(duration) <= slow.global_duration(duration)
