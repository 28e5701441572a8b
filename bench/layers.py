"""Per-layer metrics of one traced run, named after the program's modules.

Inputs are the span table merged over every process of the run (see
:mod:`bench.tracer`) and counters the program already keeps:
``RunMetrics.perf``, ``RunMetrics.faults``, ``RunMetrics.channel`` and the
``ShardedRunResult`` fields. Layers a workload does not load read 0.
"""

from __future__ import annotations

from typing import Any, Dict, List

from bench.tracer import DRAIN, RUN_UNTIL

Spans = Dict[str, List[float]]  # key -> [calls, total_s, self_s, true_results]

_EVENT_FIRE = "event:repro.sim.engine:PeriodicProcess._fire"
_EVENT_SCAN = "event:repro.d2d.base:D2DMedium.discover.<locals>.finish"
_EVENT_LINK_CHECK = "event:repro.d2d.base:D2DMedium._check_link"
_AUDITOR = "repro.faults.auditor:InvariantAuditor."


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(result: Any, spans: Spans, ops: int) -> Dict[str, float]:
    """Every layer metric except the ``host.*`` and ``bench.*`` context."""

    def field(index: int, *keys: str) -> float:
        return sum(spans[k][index] for k in keys if k in spans)

    def calls(*keys: str) -> int:
        return int(field(0, *keys))

    def total_s(*keys: str) -> float:
        return field(1, *keys)

    def self_s(*keys: str) -> float:
        return field(2, *keys)

    metrics = result.metrics
    perf = metrics.perf or {}
    faults = metrics.faults
    channel = metrics.channel or {}
    sharded = hasattr(result, "shard_load")
    events = result.events_fired if sharded else result.context.sim.events_fired
    coalesced_pops = (
        sum(load["coalesced_pops"] for load in result.shard_load) if sharded
        else result.context.sim.queue.coalesced_pops
    )
    scans = perf.get("scans", 0)
    examined = perf.get("scan_candidates_examined", 0)
    dispatch = self_s(RUN_UNTIL, DRAIN)
    scan_self = self_s(_EVENT_SCAN)
    send = "repro.d2d.base:D2DConnection.send"
    offer = "repro.core.scheduler:MessageScheduler.offer"

    def pair(name: str, key: str) -> Dict[str, float]:
        return {f"{name}.calls": calls(key), f"{name}.self_s": self_s(key)}

    out: Dict[str, float] = {
        "sim.events": events,
        "sim.dispatch_self_s": dispatch,
        "sim.periodic_fire_self_s": self_s(_EVENT_FIRE),
        "sim.us_per_event": 1e6 * _ratio(dispatch, events),
        "sim.coalesced_pops": coalesced_pops,
        "d2d.scans": scans,
        "d2d.scan_self_s": scan_self,
        "d2d.us_per_scan": 1e6 * _ratio(scan_self, scans),
        "d2d.candidates_per_scan": _ratio(examined, scans),
        "d2d.peer_yield": _ratio(perf.get("scan_peers_returned", 0), examined),
        "d2d.vectorized_share": _ratio(perf.get("vectorized_scans", 0), scans),
        "d2d.link_checks": calls(_EVENT_LINK_CHECK),
        "d2d.link_check_self_s": self_s(_EVENT_LINK_CHECK),
        **pair("d2d.send", send),
        "d2d.connects": calls("repro.d2d.base:D2DMedium.connect"),
        "d2d.transfer_failures": calls(send) - int(field(3, send)),
        "mobility.index_queries": perf.get("index_queries", 0),
        "mobility.block_cache_hit_ratio": _ratio(
            perf.get("index_block_cache_hits", 0), perf.get("index_queries", 0)
        ),
        "mobility.index_updates": perf.get("index_updates", 0),
        "mobility.query_self_s": self_s(
            "repro.mobility.index:SpatialIndex.query_block",
            "repro.mobility.index:SpatialIndex.query_neighbors",
        ),
        "mobility.place_crowd_s": total_s("repro.mobility.models:place_crowd"),
        **pair("core.matching.evaluate", "repro.core.matching:RelayMatcher.evaluate"),
        **pair("core.matching.select", "repro.core.matching:RelayMatcher.select"),
        **pair("core.scheduler.offer", offer),
        "core.scheduler.accept_ratio": _ratio(field(3, offer), calls(offer)),
        "core.scheduler.flushes": calls("repro.core.scheduler:MessageScheduler._flush"),
        **pair("core.ue.on_beat", "repro.core.ue:UEAgent.on_beat"),
        **pair("core.fallback.send", "repro.core.fallback:CellularFallbackSender.send"),
        "core.framework.add_device_s": total_s(
            "repro.core.framework:HeartbeatRelayFramework.add_device"
        ),
        **pair("cellular.modem_send", "repro.cellular.modem:CellularModem.send"),
        **pair(
            "cellular.rrc_request",
            "repro.cellular.rrc:RrcStateMachine.request_transmission",
        ),
        "cellular.uplinks_rejected": calls(
            "repro.cellular.basestation:BaseStation._reject"
        ),
        "cellular.l3_messages": metrics.total_l3_messages,
        **pair("channel.begin_transfer", "repro.channel.model:ChannelModel.begin_transfer"),
        **pair("channel.estimate_link", "repro.channel.model:ChannelModel.estimate_link"),
        "channel.allocator_pick.calls": calls(
            "repro.channel.allocator:CentralizedAllocator.pick",
            "repro.channel.allocator:MessagePassingAllocator.pick",
        ),
        "channel.allocator_pick.self_s": self_s(
            "repro.channel.allocator:CentralizedAllocator.pick",
            "repro.channel.allocator:MessagePassingAllocator.pick",
        ),
        "channel.rb_utilization": channel.get("rb_utilization") or 0.0,
        **pair("energy.charge", "repro.energy.model:EnergyModel.charge"),
        "faults.audit_self_s": sum(
            rec[2] for key, rec in spans.items() if key.startswith(_AUDITOR)
        ),
        "faults.chaos_events": faults.chaos_events if faults else 0,
        "faults.audit_violations": (faults.audit_violations or 0) if faults else 0,
        "shard.setup_s": total_s("repro.shard:_ShardState.__init__"),
        "shard.windows": result.windows if sharded else 0,
        "shard.window_work_s": result.total_work_s if sharded else 0.0,
        "shard.barrier_wait_s": (
            sum(load["barrier_wait_s"] for load in result.shard_load)
            if sharded else 0.0
        ),
        "shard.drain_s": total_s(DRAIN),
        "shard.sync_s": perf.get("timer_shard-sync_s", 0.0),
        "shard.critical_path_s": result.critical_path_s if sharded else 0.0,
        "shard.device_skew": result.device_skew if sharded else 0.0,
        "shard.ghost_registrations": result.ghost_registrations if sharded else 0,
        "shard.handovers": result.handovers if sharded else 0,
        "metrics.collect_s": total_s("repro.metrics:collect_metrics"),
        "scenarios.build_network_s": total_s("repro.scenarios:build_network"),
        "workload.beats_generated": ops,
        "workload.server_receive.self_s": self_s(
            "repro.workload.server:IMServer.receive"
        ),
    }
    return out
