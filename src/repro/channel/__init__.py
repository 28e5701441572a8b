"""Interference-aware D2D channel layer: SINR, resource blocks, capacity.

The fixed-cost transfer model (``d2d_transfer_s`` and per-message charge
constants) stays the default everywhere; this package is opt-in via
``channel="sinr"`` on scenarios or ``--channel sinr`` on the CLI.
"""

from repro.channel.allocator import (
    ALLOCATORS,
    CentralizedAllocator,
    LinkRequest,
    MessagePassingAllocator,
    RBAllocator,
    make_allocator,
    pair_penalty_mw,
    total_penalty_mw,
)
from repro.channel.model import (
    ChannelConfig,
    ChannelModel,
    ChannelStats,
    TransferGrant,
)
from repro.channel.phy import (
    THERMAL_NOISE_DBM_PER_HZ,
    dbm_to_mw,
    mw_to_dbm,
    shannon_capacity_bps,
    sinr_db,
    thermal_noise_dbm,
)
from repro.channel.rb import RBLease, ResourceBlockPool

__all__ = [
    "ALLOCATORS",
    "CentralizedAllocator",
    "ChannelConfig",
    "ChannelModel",
    "ChannelStats",
    "LinkRequest",
    "MessagePassingAllocator",
    "RBAllocator",
    "RBLease",
    "ResourceBlockPool",
    "THERMAL_NOISE_DBM_PER_HZ",
    "TransferGrant",
    "dbm_to_mw",
    "make_allocator",
    "mw_to_dbm",
    "pair_penalty_mw",
    "shannon_capacity_bps",
    "sinr_db",
    "thermal_noise_dbm",
    "total_penalty_mw",
]
