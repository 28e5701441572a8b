"""2D arena geometry."""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

Position = Tuple[float, float]


def distance_between(a: Position, b: Position) -> float:
    """Euclidean distance between two positions (metres).

    Deliberately ``sqrt(dx² + dy²)`` rather than ``math.hypot``: hypot's
    overflow-safe scaling rounds differently in the last ulp, and the
    discovery scan computes distances as ``numpy.sqrt(dx*dx + dy*dy)``
    over whole candidate blocks. Both IEEE-754 operation sequences are
    identical, which is what keeps the block scan byte-for-byte equal to
    the determinism guard's per-peer brute-force oracle.
    Coordinates are metres in city-scale arenas, so the overflow regime
    hypot protects against is unreachable.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy)


@dataclasses.dataclass(frozen=True)
class Arena:
    """Rectangular simulation area ``[0, width] × [0, height]`` (metres)."""

    width: float = 100.0
    height: float = 100.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"arena dimensions must be positive: {self}")

    def contains(self, pos: Position) -> bool:
        """Whether ``pos`` lies inside the arena (inclusive)."""
        return 0.0 <= pos[0] <= self.width and 0.0 <= pos[1] <= self.height

    def clamp(self, pos: Position) -> Position:
        """Project ``pos`` to the nearest point inside the arena."""
        return (
            min(max(pos[0], 0.0), self.width),
            min(max(pos[1], 0.0), self.height),
        )

    def random_position(self, rng) -> Position:
        """Uniform random point inside the arena."""
        return (rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))

    @property
    def diagonal(self) -> float:
        """Longest possible pairwise distance in the arena."""
        return math.hypot(self.width, self.height)
