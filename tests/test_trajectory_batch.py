"""``TrajectoryBatch.positions(t)`` equals per-model ``position(t)`` bit for bit.

Random-waypoint members are checked against *twins*: a second model
built from the same seed and queried only by scalar ``position(t)``
calls. Equal positions at every instant and equal leg lists afterwards
show that batch evaluation neither changes a walk's legs nor the order
its RNG draws them in.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mobility.models import (
    LinearMobility,
    MobilityModel,
    RandomWaypointMobility,
    TrajectoryBatch,
)
from repro.mobility.space import Arena


class PointsArena:
    """Waypoints drawn from a few fixed points, so legs often start and
    end at the same point (zero travel), and one pair is 1e-20 m apart:
    that leg's travel time vanishes in ``pause_until + travel``."""

    POINTS = ((0.0, 0.0), (1e-20, 0.0), (30.0, 40.0))

    def random_position(self, rng):
        return self.POINTS[rng.randrange(len(self.POINTS))]

    def clamp(self, pos):
        return pos


class UnboundedMobility(MobilityModel):
    """Circular motion with no declared speed bound; counts its calls."""

    def __init__(self):
        self.calls = 0

    def position(self, t):
        self.calls += 1
        return (10.0 + math.cos(t / 7.0), 20.0 - math.sin(t / 7.0))


def _bits(values):
    """Exact bit patterns (``float.hex`` tells -0.0 from 0.0)."""
    return [float(v).hex() for v in values]


def _walk(seed, arena, pause_range):
    return RandomWaypointMobility(
        arena, random.Random(seed), speed_range=(0.5, 1.5), pause_range=pause_range
    )


def _legs(model):
    return [
        (leg.t_start, leg.pause_until, leg.t_end, leg.origin, leg.target)
        for leg in model._segments
    ]


def _assert_batch_matches(batch, twins, t):
    xs, ys = batch.positions(t)
    assert xs.dtype == ys.dtype == np.float64
    expected = [twin.position(t) for twin in twins]
    assert _bits(xs.tolist()) == _bits([x for x, __ in expected])
    assert _bits(ys.tolist()) == _bits([y for __, y in expected])


def _boundaries(seed, arena, pause_range, horizon):
    """Every leg boundary of the walk up to ``horizon``, from a third twin."""
    probe = _walk(seed, arena, pause_range)
    probe.position(horizon)
    return sorted(
        {t for leg in probe._segments for t in (leg.t_start, leg.pause_until, leg.t_end)}
    )


class TestRandomWaypointRows:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32),
        points_arena=st.booleans(),
        pause_range=st.sampled_from([(0.0, 0.0), (0.0, 30.0), (5.0, 5.0)]),
        picks=st.lists(
            st.one_of(
                st.integers(0, 10_000),  # a leg boundary, by index
                st.floats(0.0, 3000.0, allow_nan=False),  # any instant
            ),
            min_size=1,
            max_size=25,
        ),
    )
    @example(seed=1, points_arena=True, pause_range=(0.0, 0.0), picks=[2999.0, 3, 0.0])
    def test_matches_scalar_twins(self, seed, points_arena, pause_range, picks):
        """Any instants, in any order — mid-pause, mid-leg, exactly on a
        leg boundary, many legs ahead, back in time — give the scalar
        walk's position bit for bit, and the walks keep identical legs."""
        arena = PointsArena() if points_arena else Arena(50.0, 50.0)
        seeds = [seed, seed + 1, seed + 2]
        walks = [_walk(s, arena, pause_range) for s in seeds]
        twins = [_walk(s, arena, pause_range) for s in seeds]
        boundaries = _boundaries(seed, arena, pause_range, 3000.0)
        batch = TrajectoryBatch(walks)
        for pick in picks:
            t = boundaries[pick % len(boundaries)] if isinstance(pick, int) else pick
            _assert_batch_matches(batch, twins, t)
        assert [_legs(walk) for walk in walks] == [_legs(twin) for twin in twins]

    def test_every_phase_of_a_leg(self):
        """Mid-pause, mid-leg, exactly at ``t_end``, on into later legs
        and then back to an earlier one."""
        arena = Arena(50.0, 50.0)
        walk = _walk(11, arena, (5.0, 5.0))
        twin = _walk(11, arena, (5.0, 5.0))
        first = _walk(11, arena, (5.0, 5.0))._segments[0]
        assert first.t_end > first.pause_until  # a leg that really travels
        batch = TrajectoryBatch([walk])
        mid_pause = (first.t_start + first.pause_until) / 2.0
        mid_leg = (first.pause_until + first.t_end) / 2.0
        for t in (mid_pause, mid_leg, first.t_end, 400.0, 5000.0, mid_leg, 0.0):
            _assert_batch_matches(batch, [twin], t)
        xs, ys = batch.positions(mid_pause)
        assert (xs[0], ys[0]) == first.origin
        xs, ys = batch.positions(first.t_end)
        assert (xs[0], ys[0]) == first.target
        # 5000 s is dozens of legs past the first one
        assert len(walk._segments) > 40
        assert _legs(walk) == _legs(twin)

    def test_zero_travel_legs(self):
        """A leg whose waypoint is its origin (or 1e-20 m off it) has no
        travel time to interpolate over; the batch must still match the
        scalar walk, without a floating-point error."""
        arena = PointsArena()
        walk = _walk(3, arena, (2.0, 2.0))
        twin = _walk(3, arena, (2.0, 2.0))
        batch = TrajectoryBatch([walk])
        with np.errstate(all="raise"):
            for step in range(400):
                _assert_batch_matches(batch, [twin], step * 0.75)
        assert any(leg.t_end == leg.pause_until for leg in walk._segments)

    def test_boundary_into_a_vanishing_leg(self):
        """Leg 8 of this walk ends where a 1e-20 m leg begins, and that
        leg's travel time vanishes in the sum, so it starts and ends at
        the same instant. Once later legs exist, a scalar query at that
        instant answers from the leg after it; a batch holding leg 8,
        which covers the instant too, must answer the same."""
        arena = PointsArena()
        probe = _walk(0, arena, (0.0, 0.0))
        probe.position(3000.0)
        leg, vanishing = probe._segments[8], probe._segments[9]
        assert vanishing.t_start == vanishing.t_end
        assert vanishing.origin != vanishing.target
        walk = _walk(0, arena, (0.0, 0.0))
        twin = _walk(0, arena, (0.0, 0.0))
        batch = TrajectoryBatch([walk])
        for t in (3000.0, (leg.pause_until + leg.t_end) / 2.0, leg.t_end):
            _assert_batch_matches(batch, [twin], t)

    def test_negative_time_is_rejected_like_a_scalar_query(self):
        batch = TrajectoryBatch([_walk(0, Arena(50.0, 50.0), (0.0, 30.0))])
        with pytest.raises(ValueError):
            batch.positions(-1.0)


class TestOtherModels:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        start=st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)),
        velocity=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
        times=st.lists(st.floats(0.0, 1e5), min_size=1, max_size=10),
    )
    @example(start=(-0.0, 3.0), velocity=(0.0, -0.0), times=[0.0, 7.5])
    def test_linear_clamped_and_unclamped(self, start, velocity, times):
        arena = Arena(100.0, 60.0)
        models = [LinearMobility(start, velocity), LinearMobility(start, velocity, arena)]
        batch = TrajectoryBatch(models)
        for t in times:
            _assert_batch_matches(batch, models, t)

    def test_no_speed_bound_takes_one_scalar_call(self):
        model = UnboundedMobility()
        assert model.max_speed_m_s() is None
        twin = UnboundedMobility()
        batch = TrajectoryBatch([model])
        for t in (0.0, 13.25, 4.0):
            _assert_batch_matches(batch, [twin], t)
        assert model.calls == 3

    def test_mixed_members_keep_member_order(self):
        arena = Arena(50.0, 50.0)

        def members():
            return [
                LinearMobility((1.0, 2.0), (0.5, -0.25)),
                _walk(5, arena, (0.0, 10.0)),
                UnboundedMobility(),
                LinearMobility((45.0, 5.0), (3.0, 0.0), arena),
                _walk(6, arena, (0.0, 10.0)),
            ]

        batch = TrajectoryBatch(members())
        twins = members()
        assert len(batch) == 5
        for t in (0.0, 2.5, 90.0, 40.0, 600.0):
            _assert_batch_matches(batch, twins, t)

    def test_empty_batch(self):
        xs, ys = TrajectoryBatch([]).positions(5.0)
        assert xs.shape == ys.shape == (0,)
