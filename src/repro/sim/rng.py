"""Seeded random-number streams.

Every stochastic component (mobility, discovery latency jitter, heartbeat
phase offsets, link losses) draws from its **own named stream** derived from
the experiment seed. Adding a new random consumer therefore never perturbs
the draws seen by existing ones, which keeps regression baselines stable.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(master_seed: int, stream: str) -> int:
    """Derive a 64-bit child seed from ``(master_seed, stream)``.

    Uses BLAKE2b rather than Python's ``hash`` so derivation is stable
    across interpreter runs and ``PYTHONHASHSEED`` values.
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{stream}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def make_rng(master_seed: int, stream: str) -> random.Random:
    """Create an independent :class:`random.Random` for a named stream."""
    return random.Random(_derive_seed(master_seed, stream))


def spawn(base_seed: int, point_index: int) -> int:
    """Derive the child seed for sweep point ``point_index``.

    The result is a 64-bit integer that depends only on
    ``(base_seed, point_index)`` — never on worker count, submission
    order, or which process computes it — so a parallel sweep sees
    exactly the randomness a serial sweep would. Like
    :func:`_derive_seed` it uses BLAKE2b, so it is stable across
    interpreter runs and ``PYTHONHASHSEED`` values.
    """
    if point_index < 0:
        raise ValueError(f"point_index must be non-negative, got {point_index}")
    return _derive_seed(int(base_seed), f"sweep-point:{point_index}")


def child_seed(master_seed: int, label: str) -> int:
    """Derive a stable 64-bit child seed for a named subcomponent.

    Used where one experiment seed must fan out into several independent
    simulators — e.g. the sharded kernel seeds shard ``i ≥ 1``'s
    :class:`~repro.sim.engine.Simulator` with
    ``child_seed(seed, f"shard:{i}")`` (shard 0 takes the master seed
    itself, so one shard is the unsharded run). Like :func:`spawn`, the
    result depends only on the inputs (BLAKE2b; stable across interpreter
    runs and ``PYTHONHASHSEED``), never on process layout, so serial and
    multi-process shard backends draw identical randomness.
    """
    return _derive_seed(int(master_seed), f"child:{label}")


class RngStreams:
    """Registry of named random streams for one experiment run.

    >>> streams = RngStreams(seed=42)
    >>> streams.get("mobility") is streams.get("mobility")
    True
    >>> streams.get("mobility") is not streams.get("discovery")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, stream: str) -> random.Random:
        """Return the RNG for ``stream``, creating it on first use."""
        rng = self._streams.get(stream)
        if rng is None:
            rng = make_rng(self.seed, stream)
            self._streams[stream] = rng
        return rng

    def fork(self, stream: str) -> random.Random:
        """A fresh, unregistered RNG seeded from ``(seed, stream)``.

        Unlike :meth:`get`, each call returns a new generator in the same
        initial state — useful for replaying a sub-experiment.
        """
        return make_rng(self.seed, stream)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
