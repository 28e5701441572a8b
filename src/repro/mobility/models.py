"""Mobility models.

Each model answers ``position(t)`` for any simulated time ``t >= 0`` and
``velocity(t)`` (used by the prejudgment mechanism to estimate how long a
candidate D2D pair will stay in range).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as _np

from repro.mobility.space import Arena, Position, distance_between


class MobilityModel:
    """Interface: analytic trajectory of one device."""

    def position(self, t: float) -> Position:
        """Position at simulated time ``t`` (seconds)."""
        raise NotImplementedError

    def velocity(self, t: float) -> Tuple[float, float]:
        """Instantaneous velocity vector at ``t`` (m/s)."""
        raise NotImplementedError

    def speed(self, t: float) -> float:
        """Instantaneous speed at ``t`` (m/s)."""
        vx, vy = self.velocity(t)
        return math.hypot(vx, vy)

    def max_speed_m_s(self) -> Optional[float]:
        """Upper bound on this model's speed over all time, if known.

        ``None`` means "unbounded/unknown" — spatial acceleration
        structures must then treat the device as unindexable and fall back
        to exact checks. Built-in models all return a finite bound.
        """
        return None


class StaticMobility(MobilityModel):
    """A device that never moves (the paper's bench experiments)."""

    def __init__(self, position: Position) -> None:
        self._position = (float(position[0]), float(position[1]))

    def position(self, t: float) -> Position:
        return self._position

    def velocity(self, t: float) -> Tuple[float, float]:
        return (0.0, 0.0)

    def max_speed_m_s(self) -> float:
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StaticMobility({self._position})"


class LinearMobility(MobilityModel):
    """Constant-velocity straight-line motion, clamped to an optional arena.

    Used for controlled distance sweeps: a UE walking away from its relay
    reproduces Fig. 12's distance axis over time.
    """

    def __init__(
        self,
        start: Position,
        velocity: Tuple[float, float],
        arena: Optional[Arena] = None,
    ) -> None:
        self.start = (float(start[0]), float(start[1]))
        self._velocity = (float(velocity[0]), float(velocity[1]))
        self.arena = arena

    def position(self, t: float) -> Position:
        pos = (
            self.start[0] + self._velocity[0] * t,
            self.start[1] + self._velocity[1] * t,
        )
        if self.arena is not None:
            pos = self.arena.clamp(pos)
        return pos

    def velocity(self, t: float) -> Tuple[float, float]:
        if self.arena is not None and self.position(t) != (
            self.start[0] + self._velocity[0] * t,
            self.start[1] + self._velocity[1] * t,
        ):
            return (0.0, 0.0)  # pinned at the wall
        return self._velocity

    def max_speed_m_s(self) -> float:
        return math.hypot(*self._velocity)


class _Segment:
    """One leg of a random-waypoint walk: pause, then move to the waypoint."""

    __slots__ = ("t_start", "pause_until", "t_end", "origin", "target")

    def __init__(
        self,
        t_start: float,
        pause_s: float,
        origin: Position,
        target: Position,
        speed: float,
    ) -> None:
        self.t_start = t_start
        self.pause_until = t_start + pause_s
        travel = distance_between(origin, target) / speed if speed > 0 else 0.0
        self.t_end = self.pause_until + travel
        self.origin = origin
        self.target = target

    def position(self, t: float) -> Position:
        if t <= self.pause_until:
            return self.origin
        if t >= self.t_end or self.t_end == self.pause_until:
            return self.target
        frac = (t - self.pause_until) / (self.t_end - self.pause_until)
        return (
            self.origin[0] + (self.target[0] - self.origin[0]) * frac,
            self.origin[1] + (self.target[1] - self.origin[1]) * frac,
        )

    def velocity(self, t: float) -> Tuple[float, float]:
        if t <= self.pause_until or t >= self.t_end or self.t_end == self.pause_until:
            return (0.0, 0.0)
        duration = self.t_end - self.pause_until
        return (
            (self.target[0] - self.origin[0]) / duration,
            (self.target[1] - self.origin[1]) / duration,
        )


class RandomWaypointMobility(MobilityModel):
    """Classic random-waypoint model on an arena.

    Waypoint legs are generated lazily and cached, so two queries for the
    same time always agree and the trajectory is deterministic under the
    model's RNG.
    """

    def __init__(
        self,
        arena: Arena,
        rng: random.Random,
        speed_range: Tuple[float, float] = (0.5, 1.5),
        pause_range: Tuple[float, float] = (0.0, 30.0),
        start: Optional[Position] = None,
    ) -> None:
        if speed_range[0] <= 0 or speed_range[1] < speed_range[0]:
            raise ValueError(f"invalid speed range {speed_range}")
        if pause_range[0] < 0 or pause_range[1] < pause_range[0]:
            raise ValueError(f"invalid pause range {pause_range}")
        self.arena = arena
        self.rng = rng
        self.speed_range = speed_range
        self.pause_range = pause_range
        origin = arena.random_position(rng) if start is None else arena.clamp(start)
        self._segments: List[_Segment] = []
        self._append_segment(0.0, origin)

    def _append_segment(self, t_start: float, origin: Position) -> None:
        pause = self.rng.uniform(*self.pause_range)
        target = self.arena.random_position(self.rng)
        speed = self.rng.uniform(*self.speed_range)
        self._segments.append(_Segment(t_start, pause, origin, target, speed))

    def _segment_for(self, t: float) -> _Segment:
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        while self._segments[-1].t_end < t:
            last = self._segments[-1]
            self._append_segment(last.t_end, last.target)
        # linear scan from the end is fine: queries are near-monotone
        for segment in reversed(self._segments):
            if segment.t_start <= t:
                return segment
        return self._segments[0]

    def position(self, t: float) -> Position:
        return self._segment_for(t).position(t)

    def velocity(self, t: float) -> Tuple[float, float]:
        return self._segment_for(t).velocity(t)

    def max_speed_m_s(self) -> float:
        return self.speed_range[1]


class TrajectoryBatch:
    """``position(t)`` of a fixed list of mobility models as two arrays.

    :meth:`positions` returns ``(xs, ys)`` float64 arrays in member
    order, every element bit-identical to ``model.position(t)``:

    - unclamped :class:`LinearMobility` is ``x0 + vx·t`` per axis, the
      IEEE-754 sequence :meth:`LinearMobility.position` performs;
    - :class:`RandomWaypointMobility` keeps each member's current leg in
      arrays (``t_start``, ``pause_until``, ``t_end``, origin, target)
      and evaluates all legs with :meth:`_Segment.position`'s sequence.
      A member whose cached leg does not cover ``t`` (``t_start <= t <
      t_end``, so time order is not assumed) reloads that row from the
      model's own ``_segment_for(t)``, which draws from the model's RNG
      exactly as a scalar query would. The cover is open at ``t_end``
      because there a scalar query answers from the next leg once it
      exists, which differs when that leg's travel time vanishes;
    - every other model (clamped walks, no speed bound, statics) takes
      the exact scalar ``position(t)`` call.

    Built once per membership change; :meth:`positions` is the
    per-instant call.
    """

    def __init__(self, models: Sequence[MobilityModel]) -> None:
        self._n = len(models)
        linear_rows: List[int] = []
        linear: List[Tuple[float, float, float, float]] = []
        walk_rows: List[int] = []
        self._walks: List[RandomWaypointMobility] = []
        self._exact: List[Tuple[int, MobilityModel]] = []
        for row, model in enumerate(models):
            kind = type(model)
            if kind is LinearMobility and model.arena is None:
                linear_rows.append(row)
                linear.append((*model.start, *model._velocity))
            elif kind is RandomWaypointMobility:
                walk_rows.append(row)
                self._walks.append(model)
            else:
                self._exact.append((row, model))
        self._linear_rows = _np.array(linear_rows, dtype=_np.intp)
        self._x0, self._y0, self._vx, self._vy = (
            _np.array(linear, dtype=_np.float64).reshape(-1, 4).T.copy()
        )
        self._walk_rows = _np.array(walk_rows, dtype=_np.intp)
        n_walks = len(walk_rows)
        # each walk's current leg: an empty leg (start +inf, end -inf)
        # covers no instant, so every walk loads its leg on the first call
        self._t_start = _np.full(n_walks, _np.inf)
        self._t_end = _np.full(n_walks, -_np.inf)
        self._pause_until = _np.zeros(n_walks)
        self._travel_s = _np.ones(n_walks)
        self._ox = _np.zeros(n_walks)
        self._oy = _np.zeros(n_walks)
        self._dx = _np.zeros(n_walks)
        self._dy = _np.zeros(n_walks)
        self._tx = _np.zeros(n_walks)
        self._ty = _np.zeros(n_walks)
        #: every cached leg covers ``[_covered_from, _covered_until)``
        self._covered_from = _np.inf
        self._covered_until = -_np.inf

    def __len__(self) -> int:
        return self._n

    def positions(self, t: float) -> Tuple[_np.ndarray, _np.ndarray]:
        """``(xs, ys)`` of every member at ``t``, in member order."""
        xs = _np.empty(self._n)
        ys = _np.empty(self._n)
        if len(self._linear_rows):
            xs[self._linear_rows] = self._x0 + self._vx * t
            ys[self._linear_rows] = self._y0 + self._vy * t
        if self._walks:
            xs[self._walk_rows], ys[self._walk_rows] = self._walk_positions(t)
        for row, model in self._exact:
            xs[row], ys[row] = model.position(t)
        return xs, ys

    def _walk_positions(self, t: float) -> Tuple[_np.ndarray, _np.ndarray]:
        if not self._covered_from <= t < self._covered_until:
            self._load_legs(t)
        pause_until = self._pause_until
        waiting = t <= pause_until
        arrived = t >= self._t_end
        frac = (t - pause_until) / self._travel_s
        ox, oy = self._ox, self._oy
        xs = _np.where(waiting, ox, _np.where(arrived, self._tx, ox + self._dx * frac))
        ys = _np.where(waiting, oy, _np.where(arrived, self._ty, oy + self._dy * frac))
        return xs, ys

    def _load_legs(self, t: float) -> None:
        """Reload the rows whose cached leg does not cover ``t``.

        ``dx``, ``dy`` and ``travel_s`` are the differences
        :meth:`_Segment.position` computes on every call, computed once
        per leg with the same float operations. A zero-travel leg stores
        a travel time of 1: past its pause ``t > pause_until == t_end``,
        so ``arrived`` masks its ``frac`` and the divisor is never used.
        """
        stale = _np.nonzero((t < self._t_start) | (t >= self._t_end))[0]
        for i in stale.tolist():
            leg = self._walks[i]._segment_for(t)
            (ox, oy), (tx, ty) = leg.origin, leg.target
            self._t_start[i] = leg.t_start
            self._pause_until[i] = leg.pause_until
            self._t_end[i] = leg.t_end
            self._travel_s[i] = (leg.t_end - leg.pause_until) or 1.0
            self._ox[i], self._oy[i] = ox, oy
            self._dx[i], self._dy[i] = tx - ox, ty - oy
            self._tx[i], self._ty[i] = tx, ty
        self._covered_from = self._t_start.max()
        self._covered_until = self._t_end.min()


def place_crowd(
    n: int,
    arena: Arena,
    rng: random.Random,
    hotspots: int = 3,
    spread_m: float = 8.0,
    mobile_fraction: float = 0.0,
    speed_range: Tuple[float, float] = (0.5, 1.5),
) -> List[MobilityModel]:
    """Place ``n`` devices clustered around hotspots (stadium/plaza crowd).

    The signaling-storm scenario the paper motivates is a dense crowd;
    clustering makes short-distance D2D pairs plentiful, as Sec. II-D
    argues. A ``mobile_fraction`` of devices random-waypoint within the
    arena; the rest stand still near a hotspot.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if hotspots < 1:
        raise ValueError(f"need at least one hotspot, got {hotspots}")
    if not 0.0 <= mobile_fraction <= 1.0:
        raise ValueError(f"mobile_fraction out of [0,1]: {mobile_fraction}")
    centers = [arena.random_position(rng) for _ in range(hotspots)]
    models: List[MobilityModel] = []
    n_mobile = int(round(n * mobile_fraction))
    for i in range(n):
        center = centers[i % hotspots]
        pos = arena.clamp(
            (
                center[0] + rng.gauss(0.0, spread_m),
                center[1] + rng.gauss(0.0, spread_m),
            )
        )
        if i < n_mobile:
            # Each mover owns a child RNG: waypoint legs are generated
            # lazily on position queries, so a shared stream would make
            # trajectories depend on *who asks when* — e.g. indexed vs
            # brute-force discovery querying positions in different orders.
            models.append(
                RandomWaypointMobility(
                    arena,
                    random.Random(rng.getrandbits(64)),
                    speed_range=speed_range,
                    start=pos,
                )
            )
        else:
            models.append(StaticMobility(pos))
    return models
