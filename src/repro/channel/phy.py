"""SINR and Shannon-capacity arithmetic for the channel layer.

Pure functions, no state, no RNG: given who transmits where on which
resource block, what signal-to-interference-plus-noise ratio does a
receiver see and how fast can the link run? Modelled on the gym-d2d
simulator's SINR pipeline (received power minus aggregate co-channel
interference over a thermal noise floor) with the repo's
:class:`~repro.d2d.link.LinkModel` supplying the path-loss curve.

Everything here is deterministic so channel-mode runs stay replayable
from ``(scenario, seed)``; shadowing randomness lives in the discovery
path (:meth:`LinkModel.shadowed`), never in capacity computation.
"""

from __future__ import annotations

import math
from typing import Iterable

#: Thermal noise power spectral density at ~290 K, dBm per Hz.
THERMAL_NOISE_DBM_PER_HZ = -174.0


def dbm_to_mw(dbm: float) -> float:
    """Convert a dBm power level to linear milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert linear milliwatts to dBm; ``-inf`` for zero power."""
    if mw <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(mw)


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise floor over ``bandwidth_hz`` plus receiver noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(bandwidth_hz)
        + noise_figure_db
    )


def sinr_db(
    signal_dbm: float,
    interferer_dbms: Iterable[float],
    noise_dbm: float,
) -> float:
    """SINR (dB) of a link under aggregate co-channel interference.

    ``interferer_dbms`` are the received powers of every *other*
    transmission sharing the resource block, as seen at this link's
    receiver. Summation happens in linear milliwatts (powers add; dB
    values do not), exactly like gym-d2d's ``_calculate_sinrs``.
    """
    return sinr_db_mw(signal_dbm, map(dbm_to_mw, interferer_dbms), noise_dbm)


def sinr_db_mw(
    signal_dbm: float,
    interferer_mws: Iterable[float],
    noise_dbm: float,
) -> float:
    """:func:`sinr_db` with the interferer powers already in linear mW."""
    denominator_mw = dbm_to_mw(noise_dbm)
    for interferer_mw in interferer_mws:
        denominator_mw += interferer_mw
    return signal_dbm - mw_to_dbm(denominator_mw)


def shannon_capacity_bps(bandwidth_hz: float, sinr_db_value: float) -> float:
    """Shannon bound ``B * log2(1 + SINR)`` in bits per second."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    sinr_linear = 10.0 ** (sinr_db_value / 10.0)
    return bandwidth_hz * math.log2(1.0 + sinr_linear)
