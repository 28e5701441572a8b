"""Resource-block allocation: who shares spectrum with whom.

Two allocators behind one interface, mirroring the ROADMAP's pairing of
a centralized assigner with Hasan & Hossain's distributed message-passing
resource allocation:

- :class:`CentralizedAllocator` — the base station knows every link and
  solves the assignment directly: exhaustively optimal on small
  instances, greedy (least added interference, in link order) beyond
  the exhaustive budget.
- :class:`MessagePassingAllocator` — links are nodes of a pairwise
  interference graph and exchange min-sum messages until their local
  beliefs settle, followed by a 1-opt best-response repair sweep (each
  link locally switches block while that strictly lowers its own
  interference). No global coordinator ever sees the whole problem; the
  fixed point is what the distributed protocol converges to.

Both minimize the same objective — total pairwise co-channel
interference power (:func:`total_penalty_mw`) — so the property suite
can check them against each other: on instances small enough to
enumerate exhaustively the two must land on assignments of equal
objective value.

Everything is deterministic: iteration follows sorted link ids, ties
break toward the lowest block index, and no RNG is consumed anywhere.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.channel.rb import RBLease, ResourceBlockPool
from repro.d2d.link import LinkModel
from repro.mobility.space import Position


@dataclasses.dataclass(frozen=True)
class LinkRequest:
    """One directed D2D link asking for a resource block."""

    link_id: str
    tx_pos: Position
    rx_pos: Position


def received_mw_block(
    link: LinkModel, origin: Position, points: Iterable[Position]
) -> List[float]:
    """Mean received power (mW) over the path from ``origin`` to each of
    ``points`` — the deterministic path-loss curve, no shadowing.

    The one copy of the channel's power arithmetic, batched the way the
    discovery scan's survivor loop is (:meth:`D2DMedium._scan
    <repro.d2d.base.D2DMedium._scan>`): the model fields and the math
    functions are hoisted out of the loop. Each element is the *same
    scalar IEEE-754 sequence* as
    ``dbm_to_mw(link.rssi(distance_between(a, b)))`` — ``sqrt(dx*dx +
    dy*dy)``, the 0.01 m clamp, ``tx - (ref_db + slope*log10(d/ref_m))``,
    then ``10 ** (dbm/10)`` — so interference sums, and the tie-breaks
    that sit on them, match the per-pair composition bit for bit.
    Distance is symmetric to the last bit (``dx*dx`` does not see the
    sign), so ``origin`` may be either end of every path.
    """
    tx = link.tx_power_dbm
    ref_db = link.path_loss_at_ref_db
    slope = 10.0 * link.path_loss_exponent
    ref_m = link.reference_m
    log10 = math.log10
    sqrt = math.sqrt
    ox, oy = origin
    out: List[float] = []
    append = out.append
    for px, py in points:
        dx = px - ox
        dy = py - oy
        d = sqrt(dx * dx + dy * dy)
        if d < 0.01:  # avoid log(0) for co-located devices
            d = 0.01
        dbm = tx - (ref_db + slope * log10(d / ref_m))
        append(10.0 ** (dbm / 10.0))
    return out


def _received_mw(link: LinkModel, tx_pos: Position, rx_pos: Position) -> float:
    """Mean received power (mW) of a transmitter at ``tx_pos`` heard at
    ``rx_pos``."""
    return received_mw_block(link, rx_pos, (tx_pos,))[0]


def pair_penalty_mw(
    a: LinkRequest, b: LinkRequest, link: LinkModel
) -> float:
    """Mutual interference power if links ``a`` and ``b`` share a block:
    a's transmitter heard at b's receiver plus b's at a's."""
    return _received_mw(link, a.tx_pos, b.rx_pos) + _received_mw(
        link, b.tx_pos, a.rx_pos
    )


def total_penalty_mw(
    assignment: Mapping[str, int],
    requests: Sequence[LinkRequest],
    link: LinkModel,
) -> float:
    """The shared objective: summed pairwise penalty of co-channel pairs."""
    total = 0.0
    for a, b in itertools.combinations(requests, 2):
        if assignment[a.link_id] == assignment[b.link_id]:
            total += pair_penalty_mw(a, b, link)
    return total


def _penalty_matrix(
    requests: Sequence[LinkRequest], link: LinkModel
) -> List[List[float]]:
    n = len(requests)
    penalty = [[0.0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        p = pair_penalty_mw(requests[i], requests[j], link)
        penalty[i][j] = penalty[j][i] = p
    return penalty


class RBAllocator:
    """Interface: batch assignment plus incremental single-link admission."""

    name = "abstract"

    def allocate(
        self,
        requests: Sequence[LinkRequest],
        num_rbs: int,
        link: LinkModel,
    ) -> Dict[str, int]:
        """Assign every request a block in ``[0, num_rbs)``."""
        raise NotImplementedError

    def pick(
        self, request: LinkRequest, pool: ResourceBlockPool, link: LinkModel
    ) -> int:
        """Block for one newcomer given the pool's live leases."""
        raise NotImplementedError


#: Blocks whose vector cost lies within this relative distance of the
#: least one are re-priced exactly before the pick. The vector and the
#: scalar power forms agree to ~1e-13 relative, so the exact least-cost
#: block is always among them.
NEAR_TIE_REL = 1e-9


def _exact_block_cost(
    request: LinkRequest, leases: Sequence[RBLease], link: LinkModel
) -> float:
    """Added interference on one block, in the scalar arithmetic.

    Each lease's transmitter heard at the newcomer's receiver plus the
    newcomer's transmitter heard at the lease's receiver, summed in
    grant order as ``(total + heard) + caused``: the sum the reference
    per-block walk makes, bit for bit.
    """
    heard_mw = received_mw_block(
        link, request.rx_pos, [lease.tx_pos for lease in leases]
    )
    caused_mw = received_mw_block(
        link, request.tx_pos, [lease.rx_pos for lease in leases]
    )
    total = 0.0
    for heard, caused in zip(heard_mw, caused_mw):
        total = total + heard + caused
    return total


def _greedy_pick(
    request: LinkRequest, pool: ResourceBlockPool, link: LinkModel
) -> int:
    """Least-added-interference block; ties break to the lowest index.

    One numpy pass over the pool's lease arrays prices every block. A
    path's mean power is ``K * d ** -n`` for the link's constant ``K``
    and path-loss exponent ``n``, so ``max(d², 1e-4) ** (-n/2)`` (the
    0.01 m clamp included) ranks blocks as the dBm arithmetic does, up
    to rounding. A single block within :data:`NEAR_TIE_REL` of the least
    vector cost is the pick. Otherwise the near-tied blocks are summed
    again in :func:`_exact_block_cost` and the lowest-index least one
    wins, so the pick is that of the scalar per-block walk.
    """
    if not len(pool):
        return 0
    num_rbs = pool.num_rbs
    geom, blocks = pool.lease_arrays()
    (tx_x, tx_y), (rx_x, rx_y) = request.tx_pos, request.rx_pos
    # row 0 of d2: each lease's transmitter to the newcomer's receiver
    # (heard); row 1: the newcomer's transmitter to each lease's receiver
    # (caused)
    delta = geom - np.array((rx_x, tx_x, rx_y, tx_y))[:, None]
    delta *= delta
    d2 = delta[:2] + delta[2:]
    np.maximum(d2, 1e-4, out=d2)
    d2 **= -0.5 * link.path_loss_exponent
    costs = np.bincount(
        blocks, weights=d2[0] + d2[1], minlength=num_rbs + 1
    ).tolist()
    del costs[num_rbs:]  # the sentinel bin of free slots
    limit = min(costs) * (1.0 + NEAR_TIE_REL)
    tied = [rb for rb, cost in enumerate(costs) if cost <= limit]
    if len(tied) == 1:
        return tied[0]
    best_rb, best_cost = tied[0], float("inf")
    for rb in tied:
        cost = _exact_block_cost(request, pool.co_channel(rb), link)
        if cost < best_cost:
            best_rb, best_cost = rb, cost
    return best_rb


class CentralizedAllocator(RBAllocator):
    """Omniscient assigner: exhaustive on small instances, greedy beyond.

    ``exhaustive_limit`` caps ``num_rbs ** n_links``; under it the
    allocator enumerates every assignment (lexicographic order over
    sorted link ids, first optimum wins — fully deterministic), above it
    links are placed greedily in sorted-id order.
    """

    name = "centralized"

    def __init__(self, exhaustive_limit: int = 4096) -> None:
        self.exhaustive_limit = exhaustive_limit

    def allocate(
        self,
        requests: Sequence[LinkRequest],
        num_rbs: int,
        link: LinkModel,
    ) -> Dict[str, int]:
        ordered = sorted(requests, key=lambda r: r.link_id)
        if not ordered:
            return {}
        if num_rbs ** len(ordered) <= self.exhaustive_limit:
            return self._exhaustive(ordered, num_rbs, link)
        return self._greedy(ordered, num_rbs, link)

    def pick(
        self, request: LinkRequest, pool: ResourceBlockPool, link: LinkModel
    ) -> int:
        return _greedy_pick(request, pool, link)

    # ------------------------------------------------------------------
    def _exhaustive(
        self, ordered: Sequence[LinkRequest], num_rbs: int, link: LinkModel
    ) -> Dict[str, int]:
        penalty = _penalty_matrix(ordered, link)
        n = len(ordered)
        best: Optional[tuple] = None
        best_cost = float("inf")
        for combo in itertools.product(range(num_rbs), repeat=n):
            cost = 0.0
            for i in range(n):
                row = penalty[i]
                rb = combo[i]
                for j in range(i + 1, n):
                    if combo[j] == rb:
                        cost += row[j]
                if cost >= best_cost:
                    break
            if cost < best_cost:
                best_cost = cost
                best = combo
        assert best is not None
        return {r.link_id: rb for r, rb in zip(ordered, best)}

    def _greedy(
        self, ordered: Sequence[LinkRequest], num_rbs: int, link: LinkModel
    ) -> Dict[str, int]:
        penalty = _penalty_matrix(ordered, link)
        assignment: Dict[str, int] = {}
        placed: List[int] = []
        for i, request in enumerate(ordered):
            best_rb, best_cost = 0, float("inf")
            for rb in range(num_rbs):
                cost = sum(penalty[i][j] for j in placed if assignment[ordered[j].link_id] == rb)
                if cost < best_cost:
                    best_cost, best_rb = cost, rb
            assignment[request.link_id] = best_rb
            placed.append(i)
        return assignment


class MessagePassingAllocator(RBAllocator):
    """Hasan & Hossain-style distributed assignment via min-sum messages.

    Each link node ``i`` keeps a message vector toward every neighbour
    ``j`` over the block alphabet; one iteration recomputes

    ``m_{i→j}(s) = min_t [ cost_ij(t, s) + u_i(t) + Σ_{k≠j} m_{k→i}(t) ]``

    with ``cost_ij(t, s) = penalty_ij`` iff ``t == s`` (co-channel) else
    0, and ``u_i`` a tiny deterministic unary tilt (see below). The
    inner minimum excludes ``t == s`` from the zero-cost branch — folding
    it in would collapse every message to a constant and kill
    propagation. Messages are damped and min-normalized; after
    ``max_iters`` (or early convergence) the beliefs
    ``u_i(s) + Σ_k m_{k→i}(s)`` are settled into an assignment by two
    locally-computable readouts — every node takes its belief argmin,
    and nodes claim blocks one at a time in belief-confidence order —
    with the lower-objective result kept.

    Because the objective is purely pairwise and symmetric under block
    relabelling, the all-zero message state is a fixed point min-sum
    cannot leave on its own: every block looks identical from a cold
    start. Hasan & Hossain break that symmetry with per-RB link
    utilities (channel gains differ across blocks); our blocks are
    physically identical, so ``u_i`` is a vanishing stand-in — node ``i``
    prefers block ``i mod num_rbs`` by a margin of order ``1e-3`` of the
    largest pairwise penalty, enough to tilt the factor graph without
    measurably moving the objective.

    A final repair phase lets nodes best-respond to the others' settled
    choices — single-node block switches, then pairwise block swaps once
    single moves dry up — until no local move lowers the objective. Both
    move types need only information the two participants already
    exchange, so the fixed point is still one a distributed protocol
    reaches; the swap moves are what rescue the frustrated instances
    where pure 1-opt parks in a poor local optimum.
    """

    name = "message-passing"

    #: Unary tilt magnitude relative to the largest pairwise penalty.
    TILT_FRACTION = 1e-3

    def __init__(
        self,
        max_iters: int = 60,
        damping: float = 0.5,
        tolerance: float = 1e-12,
    ) -> None:
        if not 0.0 <= damping < 1.0:
            raise ValueError(f"damping must be in [0,1), got {damping}")
        self.max_iters = max_iters
        self.damping = damping
        self.tolerance = tolerance
        #: iterations the last allocate() actually ran (observability)
        self.last_iterations = 0

    def allocate(
        self,
        requests: Sequence[LinkRequest],
        num_rbs: int,
        link: LinkModel,
    ) -> Dict[str, int]:
        return self._allocate(requests, num_rbs, link, {})

    def _allocate(
        self,
        requests: Sequence[LinkRequest],
        num_rbs: int,
        link: LinkModel,
        pins: Mapping[str, int],
    ) -> Dict[str, int]:
        """Joint assignment; links in ``pins`` are held to their block."""
        ordered = sorted(requests, key=lambda r: r.link_id)
        n = len(ordered)
        if n == 0:
            return {}
        if n == 1 or num_rbs == 1:
            return {r.link_id: pins.get(r.link_id, 0) for r in ordered}
        penalty = _penalty_matrix(ordered, link)
        states = range(num_rbs)
        locked = {
            i for i, r in enumerate(ordered) if r.link_id in pins
        }
        # symmetry-breaking unary tilt: node i prefers block i % num_rbs,
        # margin shrinking with node index so ties resolve in id order.
        # Pinned nodes instead carry a prohibitive unary away from their
        # block — larger than any achievable total penalty — so the
        # consensus routes around them rather than moving them.
        max_pen = max(max(row) for row in penalty)
        tilt = self.TILT_FRACTION * max_pen
        pin_cost = (1.0 + max_pen) * n * n
        unary = [
            (
                [
                    0.0 if s == pins[ordered[i].link_id] else pin_cost
                    for s in states
                ]
                if i in locked
                else [
                    tilt * ((s - i) % num_rbs) * (n - i) / (n * num_rbs)
                    for s in states
                ]
            )
            for i in range(n)
        ]
        # messages[i][j][s]: node i's message toward node j about state s
        messages = [
            [[0.0] * num_rbs for _ in range(n)] for _ in range(n)
        ]
        self.last_iterations = 0
        for _ in range(self.max_iters):
            self.last_iterations += 1
            delta = 0.0
            for i in range(n):
                incoming = [
                    unary[i][s]
                    + sum(messages[k][i][s] for k in range(n) if k != i)
                    for s in states
                ]
                for j in range(n):
                    if j == i:
                        continue
                    base = [incoming[s] - messages[j][i][s] for s in states]
                    # min over t != s of base[t]: track the two smallest so
                    # the co-channel state s is excluded from its own
                    # zero-cost branch (min over all t would collapse every
                    # message to a constant and kill propagation).
                    lo_idx = min(states, key=base.__getitem__)
                    lo = base[lo_idx]
                    lo2 = min(base[s] for s in states if s != lo_idx)
                    fresh = [
                        min(
                            lo2 if s == lo_idx else lo,
                            base[s] + penalty[i][j],
                        )
                        for s in states
                    ]
                    norm = min(fresh)
                    for s in states:
                        new = (
                            self.damping * messages[i][j][s]
                            + (1.0 - self.damping) * (fresh[s] - norm)
                        )
                        delta = max(delta, abs(new - messages[i][j][s]))
                        messages[i][j][s] = new
            if delta <= self.tolerance:
                break
        beliefs = [
            [
                unary[i][s]
                + sum(messages[k][i][s] for k in range(n) if k != i)
                for s in states
            ]
            for i in range(n)
        ]
        # Two locally-computable decision rules settle the beliefs into
        # an assignment; each is polished by best-response repair and the
        # lower-objective fixed point wins. The simultaneous argmin is
        # the classic min-sum readout; the sequential claim (nodes pick
        # in belief-confidence order, responding to earlier claims) is
        # what rescues Latin-square-like geometries where every
        # simultaneous readout is a frustrated local optimum.
        pinned_choice = [
            pins[ordered[i].link_id] if i in locked else None for i in range(n)
        ]
        argmin = self._repair(
            [
                pinned_choice[i]
                if i in locked
                else min(states, key=lambda s: (beliefs[i][s], s))
                for i in range(n)
            ],
            penalty,
            num_rbs,
            locked,
        )
        claimed = self._repair(
            self._sequential_claim(
                beliefs, penalty, num_rbs, pinned_choice
            ),
            penalty,
            num_rbs,
            locked,
        )
        choice = min(
            (argmin, claimed), key=lambda c: self._objective(c, penalty)
        )
        return {r.link_id: rb for r, rb in zip(ordered, choice)}

    def pick(
        self, request: LinkRequest, pool: ResourceBlockPool, link: LinkModel
    ) -> int:
        """Admit one link by joining the distributed consensus.

        Re-runs message passing over the live leases plus the newcomer
        with every live lease pinned to its actual block (in-flight
        airtime can't hop blocks), so the joint fixed point routes the
        newcomer around the incumbents rather than advising moves they
        cannot make.
        """
        active = pool.live_leases()
        if not active:
            return 0
        requests = [
            LinkRequest(lease.lease_id, lease.tx_pos, lease.rx_pos)
            for lease in active
        ]
        pins = {lease.lease_id: lease.rb for lease in active}
        requests.append(request)
        joint = self._allocate(requests, pool.num_rbs, link, pins)
        return joint[request.link_id]

    # ------------------------------------------------------------------
    @staticmethod
    def _objective(choice: List[int], penalty: List[List[float]]) -> float:
        """Total co-channel penalty of an assignment (the shared objective)."""
        n = len(choice)
        return sum(
            penalty[i][j]
            for i in range(n)
            for j in range(i + 1, n)
            if choice[i] == choice[j]
        )

    @staticmethod
    def _sequential_claim(
        beliefs: List[List[float]],
        penalty: List[List[float]],
        num_rbs: int,
        pinned_choice: List[Optional[int]],
    ) -> List[int]:
        """Nodes claim blocks one at a time, most-decided first.

        Pinned nodes hold their block up front. Confidence is the gap
        between a node's best and second-best belief; each claimer takes
        the block with the least penalty toward already-claimed nodes,
        breaking ties by its own belief, then by block index.
        Deterministic: the claim order tie-breaks on node index.
        """
        n = len(beliefs)
        states = range(num_rbs)
        choice: List[Optional[int]] = list(pinned_choice)

        def confidence(i: int) -> float:
            top_two = sorted(beliefs[i])[:2]
            return top_two[1] - top_two[0]

        order = sorted(
            (i for i in range(n) if choice[i] is None),
            key=lambda i: (-confidence(i), i),
        )
        for i in order:
            costs = [0.0] * num_rbs
            for j in range(n):
                if choice[j] is not None and j != i:
                    costs[choice[j]] += penalty[i][j]
            choice[i] = min(states, key=lambda s: (costs[s], beliefs[i][s], s))
        return choice

    def _repair(
        self,
        choice: List[int],
        penalty: List[List[float]],
        num_rbs: int,
        locked: frozenset = frozenset(),
    ) -> List[int]:
        """Local best-response until no single move or pair swap helps.

        Single-node block switches run first; once they dry up, pairwise
        block swaps (two nodes trading blocks — each needs only the
        other's cost row) are tried. ``locked`` nodes never move. Every
        accepted move strictly lowers the shared objective, so the sweep
        terminates.
        """
        n = len(choice)
        for _ in range(4 * n):
            moved = False
            for i in range(n):
                if i in locked:
                    continue
                row = penalty[i]
                costs = [0.0] * num_rbs
                for j in range(n):
                    if j != i:
                        costs[choice[j]] += row[j]
                best = min(range(num_rbs), key=lambda s: (costs[s], s))
                if costs[best] < costs[choice[i]]:
                    choice[i] = best
                    moved = True
            if not moved:
                for i in range(n):
                    if i in locked:
                        continue
                    for j in range(i + 1, n):
                        if j in locked:
                            continue
                        a, b = choice[i], choice[j]
                        if a == b:
                            continue
                        gain = 0.0
                        for k in range(n):
                            if k == i or k == j:
                                continue
                            c = choice[k]
                            gain += penalty[i][k] * ((c == b) - (c == a))
                            gain += penalty[j][k] * ((c == a) - (c == b))
                        if gain < 0.0:
                            choice[i], choice[j] = b, a
                            moved = True
            if not moved:
                break
        return choice


#: Name → allocator factory, the ``--allocator`` CLI alphabet.
ALLOCATORS: Dict[str, type] = {
    CentralizedAllocator.name: CentralizedAllocator,
    MessagePassingAllocator.name: MessagePassingAllocator,
}


def make_allocator(spec: Union[str, RBAllocator, None]) -> RBAllocator:
    """Resolve an allocator name (or pass an instance through)."""
    if spec is None:
        return CentralizedAllocator()
    if isinstance(spec, RBAllocator):
        return spec
    try:
        return ALLOCATORS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown allocator {spec!r}; known: {sorted(ALLOCATORS)}"
        ) from None
