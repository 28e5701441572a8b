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


def affine_params(
    model: MobilityModel,
) -> Optional[Tuple[float, float, float, float]]:
    """``(x0, y0, vx, vy)`` if ``position(t) == (x0 + vx·t, y0 + vy·t)``
    exactly for all ``t``, else ``None``.

    Only unclamped straight-line motion qualifies: an arena-clamped
    :class:`LinearMobility` stops being affine the moment it hits a wall,
    and :class:`RandomWaypointMobility` is piecewise (and mutates lazy
    segment state on queries), so both take the exact per-model fallback.
    """
    if isinstance(model, StaticMobility):
        x, y = model._position
        return (x, y, 0.0, 0.0)
    if isinstance(model, LinearMobility) and model.arena is None:
        return (*model.start, *model._velocity)
    return None


class TrajectoryBatch:
    """Batched ``position(t)`` over a fixed set of mobility models.

    Splits the set into an affine block — evaluated as ``x0 + vx·t`` with
    one numpy multiply-add per axis, the *same* IEEE-754 sequence
    :meth:`LinearMobility.position` performs, so results are bit-identical
    to per-model calls — and an exact remainder evaluated model by model.
    Built once per membership change; ``positions_at`` is the per-tick
    call. Below ``min_block`` affine members everything runs the exact
    path, so the batch is always safe to use.
    """

    def __init__(
        self,
        members: Sequence[Tuple[str, MobilityModel]],
        min_block: int = 8,
    ) -> None:
        affine_ids: List[str] = []
        x0: List[float] = []
        y0: List[float] = []
        vx: List[float] = []
        vy: List[float] = []
        exact: List[Tuple[str, MobilityModel]] = []
        for key, model in members:
            params = affine_params(model)
            if params is None:
                exact.append((key, model))
            else:
                affine_ids.append(key)
                x0.append(params[0])
                y0.append(params[1])
                vx.append(params[2])
                vy.append(params[3])
        if len(affine_ids) < min_block:
            # not worth the numpy call overhead — fold back into exact
            exact = list(members)
            affine_ids = []
        self._exact = exact
        self._affine_ids = affine_ids
        if affine_ids:
            self._x0 = _np.array(x0)
            self._y0 = _np.array(y0)
            self._vx = _np.array(vx)
            self._vy = _np.array(vy)

    def __len__(self) -> int:
        return len(self._affine_ids) + len(self._exact)

    @property
    def affine_count(self) -> int:
        return len(self._affine_ids)

    def positions_at(self, t: float) -> List[Tuple[str, float, float]]:
        """``(key, x, y)`` for every member at time ``t``.

        Affine members first (batch order), then the exact remainder —
        callers that need a specific order should not rely on this one.
        """
        out: List[Tuple[str, float, float]] = []
        if self._affine_ids:
            xs = (self._x0 + self._vx * t).tolist()
            ys = (self._y0 + self._vy * t).tolist()
            out.extend(zip(self._affine_ids, xs, ys))
        for key, model in self._exact:
            x, y = model.position(t)
            out.append((key, x, y))
        return out


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
