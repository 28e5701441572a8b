"""Replay the inline shadowing draw of ``D2DMedium._scan`` against
``random.Random.gauss``, with the standard library only.

``_scan`` copies ``random.Random.gauss``'s Box–Muller statements into its
survivor loop instead of calling ``rng.gauss`` per peer. That is exact
only while the interpreter's ``gauss`` runs the same statements, so this
script checks two things under whatever interpreter runs it, numpy or
not:

1. every statement of :data:`STATEMENTS` still appears in ``_scan``'s
   source, so the copy below is the copy the scan runs;
2. for many seeds, draws made by that sequence — interleaved with
   direct ``gauss`` calls on the same generator, odd and even batch
   sizes — equal a walk that calls ``gauss`` once per draw, value for
   value and in ``getstate()`` (which includes the pair cache
   ``gauss_next``).

Run it as ``python tests/gauss_replay.py``; it exits non-zero on any
mismatch. ``tests/test_determinism_guard.py`` also runs it in-process.
"""

from __future__ import annotations

import math
import pathlib
import random
import sys
from typing import List

#: the inline draw's statements, exactly as ``_scan`` spells them
STATEMENTS = (
    "pending = rng.gauss_next",
    "x2pi = uniform() * _TWOPI",
    "g2rad = sqrt(-2.0 * log(1.0 - uniform()))",
    "z = cos(x2pi) * g2rad",
    "pending = sin(x2pi) * g2rad",
    "z = pending",
    "pending = None",
    "rssi += 0.0 + z * sigma",
    "rng.gauss_next = pending",
)

_TWOPI = 2.0 * math.pi

BASE_PY = pathlib.Path(__file__).resolve().parent.parent / "src/repro/d2d/base.py"


def inline_draws(rng: random.Random, means: List[float], sigma: float) -> List[float]:
    """``mean + N(0, sigma)`` per mean, drawn by the inline sequence."""
    uniform = rng.random
    pending = rng.gauss_next
    log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
    out = []
    for rssi in means:
        if pending is None:
            x2pi = uniform() * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            z = cos(x2pi) * g2rad
            pending = sin(x2pi) * g2rad
        else:
            z = pending
            pending = None
        rssi += 0.0 + z * sigma
        out.append(rssi)
    rng.gauss_next = pending
    return out


def check_source() -> None:
    """Every statement of :data:`STATEMENTS` is in ``_scan``'s body."""
    source = BASE_PY.read_text()
    start = source.index("    def _scan(")
    end = source.index("\n    def ", start + 1)
    body = source[start:end]
    missing = [line for line in STATEMENTS if line not in body]
    if missing:
        raise AssertionError(f"_scan no longer contains {missing}")


def replay(seeds: int = 40, steps: int = 60) -> int:
    """Compare the inline sequence with ``gauss`` walks; returns the
    number of draws compared."""
    compared = 0
    for seed in range(seeds):
        inline_rng = random.Random(seed)
        walk_rng = random.Random(seed)
        plan = random.Random(10_000 + seed)
        for __ in range(steps):
            sigma = plan.choice((0.5, 2.0, 8.0))
            means = [plan.uniform(-90.0, -20.0) for __ in range(plan.randrange(6))]
            got = inline_draws(inline_rng, means, sigma)
            want = [mean + walk_rng.gauss(0.0, sigma) for mean in means]
            if got != want or inline_rng.getstate() != walk_rng.getstate():
                raise AssertionError(f"inline draw diverged at seed {seed}")
            compared += len(means)
            for __ in range(plan.randrange(3)):
                if inline_rng.gauss(0.0, 1.0) != walk_rng.gauss(0.0, 1.0):
                    raise AssertionError(f"direct gauss diverged at seed {seed}")
    return compared


if __name__ == "__main__":
    check_source()
    draws = replay()
    print(
        f"inline draw == random.Random.gauss on Python "
        f"{sys.version.split()[0]}: {draws} draws"
    )
