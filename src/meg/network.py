"""Deterministic discrete-event message transport between replicas.

Time advances in integer ticks.  Sends schedule deliveries after a bounded
random delay; `step` hands back everything due at the current tick in send
order, so identical configurations and seeds replay the identical event
trace.  The queue is a dict from each due tick to the list of plain
`(sender, receiver, msg)` tuples due then: scheduling appends to one list,
and `step` pops one.  That is the order of (due tick, send sequence number),
because nothing is ever scheduled for the current tick or an earlier one:
every delay is at least one tick, and a partition defers an operation to the
tick it heals, which is later.
An operation travels as its signed envelope, the vertex with its signature,
queued as it is.  Gossip and backfill messages, trace events
and partitions are named tuples, which cost less to build, and to define at
import, than frozen dataclasses; they are told apart by type, never by tuple
equality (a `GossipMessage` and a `BackfillRequest` of the same ids compare
equal).

Two delivery guarantees are simulated for operation messages:

* BEST_EFFORT: links may silently drop or duplicate; partitions discard
  crossing traffic.
* RELIABLE: no drops; traffic crossing a partition is deferred until the
  cut heals.  Duplicates are handed over like any copy: the receiving
  replica skips a copy whose id is in its state or its pending buffer.
  Parent-causal delivery is done by the replica's pending buffer.

Gossip and backfill messages are auxiliary and always best-effort: partitions
drop them and the periodic retry cadence is expected to absorb losses.

A sender's own copy is not routed through the scheduler; callers apply their
own operations synchronously at broadcast time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Iterable, NamedTuple

from .core import EventId
from .monitor import SignedEnvelope


class DeliveryGuarantee(Enum):
    RELIABLE = "Reliable"
    BEST_EFFORT = "BestEffort"


class Partition(NamedTuple):
    """Bipartition active on ticks [start, end); must heal (finite end)."""

    start: int
    end: int
    side_a: frozenset[int]

    def separates(self, a: int, b: int, tick: int) -> bool:
        if not (self.start <= tick < self.end):
            return False
        return (a in self.side_a) != (b in self.side_a)


# Dataclass, not a NamedTuple: `__post_init__` validates every config built.
@dataclass(frozen=True)
class NetworkConfig:
    """Transport parameters.  Delays are uniform integer ticks in [lo, hi]."""

    guarantee: DeliveryGuarantee
    delay: tuple[int, int] = (1, 10)
    drop: float = 0.0
    duplicate: float = 0.0
    partitions: tuple[Partition, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.delay
        if lo < 1 or hi < lo:
            raise ValueError(f"delay bounds must satisfy 1 <= lo <= hi, got {self.delay}")
        if not (0.0 <= self.drop <= 1.0) or not (0.0 <= self.duplicate <= 1.0):
            raise ValueError("drop and duplicate must be probabilities in [0, 1]")
        for part in self.partitions:
            if part.start < 0 or part.end <= part.start:
                raise ValueError(f"partition interval invalid: [{part.start}, {part.end})")
        if self.guarantee is not DeliveryGuarantee.BEST_EFFORT and self.drop > 0:
            raise ValueError(f"{self.guarantee.value} requires drop probability 0")


# The benchmark's name for an operation on the wire (`bench/spans.py`); goes
# with ROADMAP item 13.
OpMessage = SignedEnvelope


class GossipMessage(NamedTuple):
    extremities: frozenset[EventId]


class BackfillRequest(NamedTuple):
    missing: frozenset[EventId]


class BackfillResponse(NamedTuple):
    """The envelopes served for a request, and that request's ids.

    `answers` is the request's own frozenset, echoed so that the requester
    can tell which of its requests this answers; the empty default answers
    none.
    """

    envelopes: tuple[SignedEnvelope, ...]
    answers: frozenset[EventId] = frozenset()


class TraceEvent(NamedTuple):
    """One trace record: replicas by index, receiver None for a send to all.

    `event` is the id the record names, or None: the bytes the vertex already
    holds, not a copy.  Replica names and the id's 16-hex-digit prefix are
    rendered only when `line` writes the record.
    """

    tick: int
    kind: str  # SEND | DELIVER | DROP | BACKFILL_REQ | BACKFILL_RESP | GOSSIP
    sender: int
    receiver: int | None
    event: EventId | None

    def line(self) -> str:
        receiver = "*" if self.receiver is None else f"r{self.receiver}"
        event = "-" if self.event is None else self.event[:8].hex()
        return f"{self.tick}\t{self.kind}\tr{self.sender}\t{receiver}\t{event}"


# The trace kind of a message that is handed over.
_KINDS = {
    SignedEnvelope: "DELIVER",
    GossipMessage: "GOSSIP",
    BackfillRequest: "BACKFILL_REQ",
    BackfillResponse: "BACKFILL_RESP",
}


def _msg_id(msg: object) -> EventId | None:
    if isinstance(msg, SignedEnvelope):
        return msg.id
    if isinstance(msg, BackfillRequest):
        return min(msg.missing)
    if isinstance(msg, BackfillResponse) and msg.envelopes:
        return msg.envelopes[0].id
    return None


class Network:
    """Message scheduler shared by all replicas of one scenario."""

    def __init__(self, n: int, config: NetworkConfig) -> None:
        if n < 1:
            raise ValueError("need at least one replica")
        self.n = n
        self.config = config
        self.tick = 0
        self.trace: list[TraceEvent] = []
        self._queue: defaultdict[int, list[tuple[int, int, object]]] = defaultdict(list)
        self._rng = Random(f"{config.seed}:net")

    # -- helpers -----------------------------------------------------------

    def _log(self, kind: str, sender: int, receiver: int | None, event: EventId | None) -> None:
        self.trace.append(TraceEvent(self.tick, kind, sender, receiver, event))

    def _next_open_tick(self, a: int, b: int, tick: int) -> int:
        """First tick from `tick` on at which no partition separates a and b."""
        t = tick
        while True:
            ends = [p.end for p in self.config.partitions if p.separates(a, b, t)]
            if not ends:
                return t
            # Each of these partitions separates the pair until its end.
            t = max(ends)

    def _push(self, due: int, sender: int, receiver: int, msg: object) -> None:
        self._queue[due].append((sender, receiver, msg))

    def _sample_delay(self) -> int:
        lo, hi = self.config.delay
        # What `randint(lo, hi)` calls, so the draws are the same.
        return self._rng.randrange(lo, hi + 1)

    # -- sends -------------------------------------------------------------

    def broadcast(
        self,
        sender: int,
        env: SignedEnvelope,
        targets: Iterable[int] | None = None,
    ) -> None:
        """Address an operation to `targets` (default: everyone).

        The sender is never addressed: the caller applies its own copy
        synchronously.  A correct replica always targets all; restricted
        target sets model crash-mid-send and byzantine behavior.
        """
        vid = env.id
        self._log("SEND", sender, None, vid)
        drop, duplicate, random = self.config.drop, self.config.duplicate, self._rng.random
        delay, queue, tick = self._sample_delay, self._queue, self.tick
        for r in range(self.n) if targets is None else sorted(set(targets)):
            if r == sender:
                continue
            if drop and random() < drop:
                self._log("DROP", sender, r, vid)
                continue
            queue[tick + delay()].append((sender, r, env))
            if duplicate and random() < duplicate:
                queue[tick + delay()].append((sender, r, env))

    def gossip_extremities(self, sender: int, extremities: frozenset[EventId]) -> None:
        """Advertise the sender's extremity ids to every other replica."""
        msg = GossipMessage(extremities)
        delay, queue, tick = self._sample_delay, self._queue, self.tick
        for r in range(self.n):
            if r != sender:
                queue[tick + delay()].append((sender, r, msg))

    def request_backfill(self, requester: int, peer: int, missing: Iterable[EventId]) -> None:
        missing = frozenset(missing)
        if missing:
            self._push(self.tick + self._sample_delay(), requester, peer, BackfillRequest(missing))

    def respond_backfill(
        self,
        sender: int,
        peer: int,
        answers: frozenset[EventId],
        envelopes: Iterable[SignedEnvelope],
    ) -> None:
        """Answer `peer`'s request for the ids `answers`, echoing that frozenset."""
        msg = BackfillResponse(tuple(envelopes), answers)
        self._push(self.tick + self._sample_delay(), sender, peer, msg)

    # -- delivery ----------------------------------------------------------

    def step(self) -> list[tuple[int, int, object]]:
        """Process everything due at the current tick, then advance one tick.

        Returns (receiver index, sender index, message) triples in delivery
        order; the caller routes them into replica logic.  A message a
        partition cuts is dropped, unless it is an operation under Reliable:
        that is deferred until the cut heals.
        """
        t = self.tick
        out: list[tuple[int, int, object]] = []
        partitions = self.config.partitions
        reliable = self.config.guarantee is not DeliveryGuarantee.BEST_EFFORT
        trace = self.trace
        for sender, receiver, msg in self._queue.pop(t, ()):
            if partitions and any(p.separates(sender, receiver, t) for p in partitions):
                if reliable and isinstance(msg, SignedEnvelope):
                    self._push(self._next_open_tick(sender, receiver, t), sender, receiver, msg)
                else:
                    self._log("DROP", sender, receiver, _msg_id(msg))
                continue
            trace.append(TraceEvent(t, _KINDS[type(msg)], sender, receiver, _msg_id(msg)))
            out.append((receiver, sender, msg))
        self.tick = t + 1
        return out

    # -- introspection -----------------------------------------------------

    def queue_empty(self) -> bool:
        return not self._queue

    def pending_payload(self) -> bool:
        """True if an operation (or non-empty backfill) is still in flight.

        Gossip that nobody will answer and empty responses do not count as
        pending work; undelivered operations do.
        """
        for due in self._queue.values():
            for *_, msg in due:
                if isinstance(msg, SignedEnvelope):
                    return True
                if isinstance(msg, BackfillResponse) and msg.envelopes:
                    return True
        return False
