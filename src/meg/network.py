"""Deterministic discrete-event message transport between replicas.

Time advances in integer ticks.  Sends schedule deliveries after a bounded
random delay; `step` hands back everything due at the current tick, ordered
by (due tick, enqueue sequence number), so identical configurations and seeds
replay the identical event trace.  The queue is a heap of plain
`(due, seq, item)` tuples; `seq` is unique, so the heap orders entries by
integer comparison alone and never compares the items.  Messages, queue
items and trace events are named tuples, which cost less to build than
frozen dataclasses; they are told apart by type, never by tuple equality
(a `GossipMessage` and a `BackfillRequest` of the same ids compare equal).

Three delivery guarantees are simulated for operation messages:

* BEST_EFFORT: links may silently drop or duplicate; partitions discard
  crossing traffic.
* RELIABLE: per-recipient exactly-once for whatever the sender actually
  addressed.  Duplicates are filtered at the receiver, drops are disallowed,
  and traffic crossing a partition is deferred until the cut heals.
* CAUSAL_ORDER_RELIABLE: RELIABLE plus receiver-side holdback so no operation
  is handed over before its parents or before earlier sends from the same
  sender to the same recipient.  Parent links plus FIFO per (sender,
  recipient) cover the happened-before relation that matters for the DAG; no
  extra vector bookkeeping is kept.  Sends are numbered per recipient, so a
  recipient left out of one send does not wait for it.  Each recipient's
  held operations sit in a `WaitingRoom`, as the pending buffer's do, filed
  under the first condition each still waits on (its sender's FIFO turn or a
  parent not yet handed over) and under its own id, so each delivery wakes
  only the operations it unblocked or made duplicates.  A copy dropped as a
  duplicate still uses up its send index, so a re-sent envelope does not
  leave its sender's FIFO turn waiting for an index that never arrives.
  An id a recipient was left out of counts as handed over there once its
  replica reports applying it another way (`mark_applied`).

Gossip and backfill messages are auxiliary and always best-effort: partitions
drop them and the periodic retry cadence is expected to absorb losses.

A sender's own copy is not routed through the scheduler; callers apply their
own operations synchronously at broadcast time, which the transport records
for ordering purposes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Iterable, NamedTuple

from .core import EventId, WaitingRoom
from .monitor import SignedEnvelope


class DeliveryGuarantee(Enum):
    CAUSAL_ORDER_RELIABLE = "CausalOrderReliable"
    RELIABLE = "Reliable"
    BEST_EFFORT = "BestEffort"


@dataclass(frozen=True)
class Partition:
    """Bipartition active on ticks [start, end); must heal (finite end)."""

    start: int
    end: int
    side_a: frozenset[int]

    def separates(self, a: int, b: int, tick: int) -> bool:
        if not (self.start <= tick < self.end):
            return False
        return (a in self.side_a) != (b in self.side_a)


@dataclass(frozen=True)
class NetworkConfig:
    """Transport parameters.  Delays are uniform integer ticks in [lo, hi]."""

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


class OpMessage(NamedTuple):
    env: SignedEnvelope
    send_index: int


class GossipMessage(NamedTuple):
    extremities: frozenset[EventId]


class BackfillRequest(NamedTuple):
    missing: frozenset[EventId]


class BackfillResponse(NamedTuple):
    envelopes: tuple[SignedEnvelope, ...]


class TraceEvent(NamedTuple):
    tick: int
    kind: str  # SEND | DELIVER | DROP | BACKFILL_REQ | BACKFILL_RESP | GOSSIP
    sender: str
    receiver: str
    event_hex: str

    def line(self) -> str:
        return f"{self.tick}\t{self.kind}\t{self.sender}\t{self.receiver}\t{self.event_hex}"


_AUX_KINDS = {
    GossipMessage: "GOSSIP",
    BackfillRequest: "BACKFILL_REQ",
    BackfillResponse: "BACKFILL_RESP",
}


def _msg_hex(msg: object) -> str:
    if isinstance(msg, BackfillRequest) and msg.missing:
        return min(msg.missing).hex()[:16]
    if isinstance(msg, BackfillResponse) and msg.envelopes:
        return msg.envelopes[0].op.vertex.id.hex()[:16]
    return "-"


class _Scheduled(NamedTuple):
    seq: int
    sender: int
    receiver: int
    msg: object


class Network:
    """Message scheduler shared by all replicas of one scenario."""

    def __init__(
        self,
        n: int,
        guarantee: DeliveryGuarantee,
        config: NetworkConfig,
        initial_ids: Iterable[EventId] = (),
    ) -> None:
        if n < 1:
            raise ValueError("need at least one replica")
        if guarantee is not DeliveryGuarantee.BEST_EFFORT and config.drop > 0:
            raise ValueError(f"{guarantee.value} requires drop probability 0")
        self.n = n
        self.guarantee = guarantee
        self.config = config
        self.tick = 0
        self.trace: list[TraceEvent] = []
        # Trace names by replica index, and None ("to everyone") as "*".
        self._names: dict[int | None, str] = {i: f"r{i}" for i in range(n)}
        self._names[None] = "*"
        self._queue: list[tuple[int, int, _Scheduled]] = []
        self._seq = 0
        self._rng = Random(f"{config.seed}:net")
        # Per sender, per recipient: next send index to assign.
        self._send_counters = [[0] * n for _ in range(n)]
        # Per receiver: operation ids already handed over (dedup and holdback),
        # and ids sent without addressing it, until its replica applies them.
        self._delivered_ops: list[set[EventId]] = [set(initial_ids) for _ in range(n)]
        self._unaddressed: list[set[EventId]] = [set() for _ in range(n)]
        # Per receiver, per sender: next expected send index (FIFO holdback),
        # and the later indexes already used up out of turn.
        self._fifo_next = [[0] * n for _ in range(n)]
        self._fifo_skipped: list[list[set[int]]] = [[set() for _ in range(n)] for _ in range(n)]
        # Per receiver, the causal holdback: a waiting room of items by seq,
        # filed under an event id (a parent, or the item's own id) or a
        # (sender, send_index) FIFO turn; and a heap of (sender, send_index,
        # seq) that may be deliverable or duplicates, re-checked when popped.
        self._holdback = [WaitingRoom() for _ in range(n)]
        self._ready: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]

    # -- helpers -----------------------------------------------------------

    def _name(self, idx: int | None) -> str:
        return self._names[idx]

    def _log(self, kind: str, sender: int | None, receiver: int | None, hex_id: str) -> None:
        self.trace.append(TraceEvent(self.tick, kind, self._name(sender), self._name(receiver), hex_id))

    def _separated(self, a: int, b: int, tick: int) -> bool:
        partitions = self.config.partitions
        return bool(partitions) and any(p.separates(a, b, tick) for p in partitions)

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
        seq = self._seq
        heapq.heappush(self._queue, (due, seq, _Scheduled(seq, sender, receiver, msg)))
        self._seq += 1

    def _sample_delay(self) -> int:
        lo, hi = self.config.delay
        return self._rng.randint(lo, hi)

    # -- sends -------------------------------------------------------------

    def broadcast(
        self,
        sender: int,
        env: SignedEnvelope,
        targets: Iterable[int] | None = None,
    ) -> None:
        """Address an operation to `targets` (default: everyone).

        The caller is expected to apply its own copy synchronously; the
        transport just records it as delivered to the sender so later causal
        holdback sees it as available.  A correct replica always targets all;
        restricted target sets model crash-mid-send and byzantine behavior.
        """
        vid = env.op.vertex.id
        self._log("SEND", sender, None, vid.hex()[:16])
        self._delivered_ops[sender].add(vid)
        self._wake(sender, vid)
        recipients = set(range(self.n)) if targets is None else set(targets)
        recipients.discard(sender)
        if targets is not None:
            for r in set(range(self.n)) - recipients - {sender}:
                self._unaddressed[r].add(vid)
        best_effort = self.guarantee is DeliveryGuarantee.BEST_EFFORT
        counters = self._send_counters[sender]
        for r in sorted(recipients):
            send_index = counters[r]
            counters[r] += 1
            if best_effort and self.config.drop > 0 and self._rng.random() < self.config.drop:
                self._log("DROP", sender, r, vid.hex()[:16])
                continue
            self._push(self.tick + self._sample_delay(), sender, r, OpMessage(env, send_index))
            if self.config.duplicate > 0 and self._rng.random() < self.config.duplicate:
                self._push(self.tick + self._sample_delay(), sender, r, OpMessage(env, send_index))

    def gossip_extremities(self, sender: int, extremities: frozenset[EventId]) -> None:
        """Advertise the sender's extremity ids to every other replica."""
        msg = GossipMessage(extremities)
        for r in range(self.n):
            if r != sender:
                self._push(self.tick + self._sample_delay(), sender, r, msg)

    def request_backfill(self, requester: int, peer: int, missing: Iterable[EventId]) -> None:
        missing = frozenset(missing)
        if missing:
            self._push(self.tick + self._sample_delay(), requester, peer, BackfillRequest(missing))

    def respond_backfill(self, sender: int, peer: int, envelopes: Iterable[SignedEnvelope]) -> None:
        self._push(self.tick + self._sample_delay(), sender, peer, BackfillResponse(tuple(envelopes)))

    # -- delivery ----------------------------------------------------------

    def mark_applied(self, receiver: int, ids: Iterable[EventId]) -> None:
        """Tell the transport which operations the receiver's replica applied.

        An id the receiver was left out of never arrives there, so once the
        replica applies it another way (by backfill), the holdback counts it
        handed over and wakes the items waiting on it; `step` hands those
        over on the next tick.  Other ids are ignored.
        """
        unaddressed = self._unaddressed[receiver]
        for vid in ids:
            if vid in unaddressed:
                unaddressed.remove(vid)
                self._delivered_ops[receiver].add(vid)
                self._wake(receiver, vid)

    def step(self) -> list[tuple[int, int, object]]:
        """Process everything due at the current tick, then advance one tick.

        Returns (receiver index, sender index, message) triples in delivery
        order; the caller routes them into replica logic.  Held items woken
        since the last step go first.
        """
        t = self.tick
        out: list[tuple[int, int, object]] = []
        for r, ready in enumerate(self._ready):
            if ready:
                self._drain_holdback(r, out)
        queue = self._queue
        while queue and queue[0][0] <= t:
            item = heapq.heappop(queue)[2]
            msg = item.msg
            if isinstance(msg, OpMessage):
                self._handle_op(item, out)
            else:
                if self._separated(item.sender, item.receiver, t):
                    self._log("DROP", item.sender, item.receiver, _msg_hex(msg))
                    continue
                self._log(_AUX_KINDS[type(msg)], item.sender, item.receiver, _msg_hex(msg))
                out.append((item.receiver, item.sender, msg))
        self.tick = t + 1
        return out

    def _handle_op(self, item: _Scheduled, out: list[tuple[int, int, object]]) -> None:
        msg: OpMessage = item.msg  # type: ignore[assignment]
        vid = msg.env.op.vertex.id
        if self._separated(item.sender, item.receiver, self.tick):
            if self.guarantee is DeliveryGuarantee.BEST_EFFORT:
                self._log("DROP", item.sender, item.receiver, vid.hex()[:16])
            else:
                self._push(
                    self._next_open_tick(item.sender, item.receiver, self.tick),
                    item.sender,
                    item.receiver,
                    msg,
                )
            return
        if self.guarantee is DeliveryGuarantee.BEST_EFFORT:
            self._log("DELIVER", item.sender, item.receiver, vid.hex()[:16])
            out.append((item.receiver, item.sender, msg))
            return
        if vid in self._delivered_ops[item.receiver]:
            self._log("DROP", item.sender, item.receiver, vid.hex()[:16])
            if self._consume_turn(item.receiver, item.sender, msg.send_index):
                self._drain_holdback(item.receiver, out)
            return
        if self.guarantee is DeliveryGuarantee.RELIABLE:
            self._deliver(item, out)
            return
        # Causal order: hold back until parents are available at the receiver
        # and all earlier sends from this sender to it went through.
        r = item.receiver
        self._holdback[r].held[item.seq] = item
        self._holdback[r].file(item.seq, vid)
        heapq.heappush(self._ready[r], (item.sender, msg.send_index, item.seq))
        self._drain_holdback(r, out)

    def _unmet(self, receiver: int, item: _Scheduled) -> object | None:
        """The first condition a held item still waits on, None if deliverable."""
        msg: OpMessage = item.msg  # type: ignore[assignment]
        if msg.send_index != self._fifo_next[receiver][item.sender]:
            return (item.sender, msg.send_index)
        delivered = self._delivered_ops[receiver]
        for p in msg.env.op.vertex.parents:
            if p not in delivered:
                return p
        return None

    def _wake(self, receiver: int, key: object) -> None:
        room = self._holdback[receiver]
        for seq in room.waiters(key):
            item = room.held[seq]
            heapq.heappush(self._ready[receiver], (item.sender, item.msg.send_index, seq))

    def _drain_holdback(self, receiver: int, out: list[tuple[int, int, object]]) -> None:
        """Hand over held items, least (sender, send_index, seq) first.

        Every held item that is a duplicate or deliverable is on the ready
        heap, so popping it in key order hands items over in the order of
        repeatedly taking the least such item.
        """
        room, ready = self._holdback[receiver], self._ready[receiver]
        held = room.held
        while ready:
            sender, send_index, seq = heapq.heappop(ready)
            item = held.get(seq)
            if item is None:
                continue
            vid = item.msg.env.op.vertex.id
            if vid in self._delivered_ops[receiver]:
                # A duplicate copy got held while the first went through.
                del held[seq]
                self._log("DROP", sender, receiver, vid.hex()[:16])
                self._consume_turn(receiver, sender, send_index)
                continue
            unmet = self._unmet(receiver, item)
            if unmet is not None:
                room.file(seq, unmet)
                continue
            del held[seq]
            self._deliver(item, out)
            self._wake(receiver, vid)

    def _deliver(self, item: _Scheduled, out: list[tuple[int, int, object]]) -> None:
        msg: OpMessage = item.msg  # type: ignore[assignment]
        vid = msg.env.op.vertex.id
        self._delivered_ops[item.receiver].add(vid)
        self._consume_turn(item.receiver, item.sender, msg.send_index)
        self._log("DELIVER", item.sender, item.receiver, vid.hex()[:16])
        out.append((item.receiver, item.sender, msg))

    def _consume_turn(self, receiver: int, sender: int, send_index: int) -> bool:
        """Use up a send index, by a delivery or by a dropped duplicate copy.

        The index equal to the FIFO turn advances the turn past any later
        indexes already used up and wakes the new turn; an index ahead of the
        turn is recorded as used up.  Returns True when the turn advanced.
        """
        turn = self._fifo_next[receiver][sender]
        skipped = self._fifo_skipped[receiver][sender]
        if send_index > turn:
            skipped.add(send_index)
        if send_index != turn:
            return False
        turn += 1
        while turn in skipped:
            skipped.remove(turn)
            turn += 1
        self._fifo_next[receiver][sender] = turn
        self._wake(receiver, (sender, turn))
        return True

    # -- introspection -----------------------------------------------------

    def queue_empty(self) -> bool:
        return not self._queue and not any(self._holdback)

    def pending_payload(self) -> bool:
        """True if an operation (or non-empty backfill) is still in flight.

        Gossip that nobody will answer and empty responses do not count as
        pending work; undelivered operations and held-back operations do.
        """
        for _, _, item in self._queue:
            if isinstance(item.msg, OpMessage):
                return True
            if isinstance(item.msg, BackfillResponse) and item.msg.envelopes:
                return True
        return any(self._holdback)
