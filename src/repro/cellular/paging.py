"""Paging channel and storm-induced paging failure.

The paper motivates signaling-storm relief from the operator's side:
"the massive signaling traffic greatly deteriorates user experience on
cellular network, such as higher rate of paging failure" (Sec. II-B).

Paging shares the control channel with RRC signaling. We model the
paging channel as a slotted resource: each paging attempt needs a free
slot in its window, and slots are consumed both by pages and by the
layer-3 signaling the ledger records. When heartbeat-driven RRC churn
fills the control channel, pages start failing (they are retried once,
then counted as failures) — exactly the downstream QoS effect the D2D
framework relieves.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.cellular.signaling import SignalingLedger
from repro.sim.engine import Simulator


@dataclasses.dataclass(frozen=True)
class PagingConfig:
    """Control-channel dimensioning for paging."""

    #: Control-channel slots per second (shared by pages and L3 messages).
    slots_per_second: float = 8.0
    #: Window over which occupancy is evaluated.
    window_s: float = 5.0
    #: Delay before a failed page is retried.
    retry_after_s: float = 2.0
    #: Retries granted before a blocked page counts as failed. The
    #: default preserves the original retry-once behavior.
    max_retries: int = 1

    def __post_init__(self) -> None:
        if self.slots_per_second <= 0:
            raise ValueError(f"slots_per_second must be positive: {self}")
        if self.window_s <= 0 or self.retry_after_s < 0:
            raise ValueError(f"invalid timing: {self}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self}")

    @property
    def slots_per_window(self) -> float:
        return self.slots_per_second * self.window_s


@dataclasses.dataclass
class PageAttempt:
    """One page through the channel, with its outcome."""

    device_id: str
    requested_at_s: float
    delivered_at_s: Optional[float] = None
    retried: bool = False
    retries: int = 0
    failed_at_s: Optional[float] = None

    @property
    def succeeded(self) -> bool:
        return self.delivered_at_s is not None

    @property
    def resolved(self) -> bool:
        """Whether the page has left the retry queue (either outcome)."""
        return self.delivered_at_s is not None or self.failed_at_s is not None


class PagingChannel:
    """Slotted paging over the shared control channel.

    A page succeeds if the control-channel occupancy (L3 messages recorded
    in the shared ledger plus pages already sent) within the current
    window leaves a free slot. A blocked page joins the retry queue and
    retries after ``retry_after_s``, up to ``max_retries`` times; running
    out of retries is a paging failure.
    """

    def __init__(
        self,
        sim: Simulator,
        ledger: SignalingLedger,
        config: PagingConfig = PagingConfig(),
    ) -> None:
        self.sim = sim
        self.ledger = ledger
        self.config = config
        self.attempts: List[PageAttempt] = []
        self._page_times: List[float] = []
        self.pages_delivered = 0
        self.pages_failed = 0
        self.pages_retried = 0
        self.retry_queue_depth = 0
        self.peak_retry_queue = 0

    # ------------------------------------------------------------------
    def occupancy(self, now: Optional[float] = None) -> int:
        """Control-channel slots used in the trailing window."""
        at = self.sim.now if now is None else now
        start = at - self.config.window_s
        l3 = self.ledger.count_between(start, at)
        pages = sum(1 for t in self._page_times if start <= t <= at)
        return l3 + pages

    def has_free_slot(self) -> bool:
        return self.occupancy() < self.config.slots_per_window

    def page(
        self,
        device_id: str,
        on_result: Optional[Callable[[PageAttempt], None]] = None,
    ) -> PageAttempt:
        """Attempt to page ``device_id``; retries while blocked."""
        attempt = PageAttempt(device_id=device_id, requested_at_s=self.sim.now)
        self.attempts.append(attempt)
        self._try_deliver(attempt, on_result)
        return attempt

    # ------------------------------------------------------------------
    def _try_deliver(
        self,
        attempt: PageAttempt,
        on_result: Optional[Callable[[PageAttempt], None]],
    ) -> None:
        queued = attempt.retries > 0
        if self.has_free_slot():
            if queued:
                self.retry_queue_depth -= 1
            attempt.delivered_at_s = self.sim.now
            self._page_times.append(self.sim.now)
            self.pages_delivered += 1
            if on_result is not None:
                on_result(attempt)
            return
        if attempt.retries < self.config.max_retries:
            attempt.retried = True
            attempt.retries += 1
            self.pages_retried += 1
            if not queued:
                self.retry_queue_depth += 1
                self.peak_retry_queue = max(
                    self.peak_retry_queue, self.retry_queue_depth
                )
            self.sim.schedule(
                self.config.retry_after_s,
                self._try_deliver,
                attempt,
                on_result,
                name="page_retry",
            )
            return
        if queued:
            self.retry_queue_depth -= 1
        attempt.failed_at_s = self.sim.now
        self.pages_failed += 1
        if on_result is not None:
            on_result(attempt)

    # ------------------------------------------------------------------
    @property
    def failure_rate(self) -> float:
        """Fraction of completed page attempts that failed."""
        done = self.pages_delivered + self.pages_failed
        return 0.0 if done == 0 else self.pages_failed / done

    @property
    def pages_requested(self) -> int:
        return len(self.attempts)

    @property
    def pages_pending(self) -> int:
        """Pages still waiting in the retry queue (unresolved)."""
        return sum(1 for a in self.attempts if not a.resolved)

    def mean_paging_delay_s(self) -> float:
        """Average request→delivery delay over successful pages."""
        delays = [
            a.delivered_at_s - a.requested_at_s
            for a in self.attempts
            if a.succeeded
        ]
        return sum(delays) / len(delays) if delays else 0.0
