"""Scenario runner: replicas, workload, faults, metrics, and verdict checks.

A `Simulation` wires n replicas to one simulated transport.  Each `step()`
runs one tick: client appends for the first `rounds` ticks, byzantine
behavior, dummies, gossip, backfill requests that came due, then the
transport's deliveries, each handled by the receiving `ReplicaNode.route`.
After `horizon` steps the system has had time to settle, and `finish()`
grades the run (`run_scenario` is that loop):

* strong_convergence: replicas that applied the same operation set hold
  bit-identical state digests.
* eventual_delivery: every operation sent by a correct replica, and every
  operation applied by at least one correct replica, reached all correct
  replicas; no operation from a correct sender is still stuck in a buffer.
* termination: the run settled (no payload in flight, activity stopped for a
  full grace window inside the horizon).
* dag_invariants: every delivery changed each replica's graph only as its
  applied vertices allow (each new, with present parents, the graph grown by
  exactly these vertices, and the matching extremity update), and at the end
  a full walk finds a rooted DAG with consistent extremity bookkeeping.  From
  the root, the per-delivery check implies the walk's invariants after every
  delivery.

`convergence_tick` is the quiescence tick when the correct replicas' final
digests agree, else None.  Correct replicas change state only on ticks that
count as activity, so from quiescence on their digests are the final ones.

There is also a lockstep mode that synchronizes all replicas between rounds.
It exists to compare measured extremity-width trajectories against the urn
analysis in `width`, which models exactly that synchronized round structure.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, fields
from pathlib import Path
from random import Random
from typing import Iterable, NamedTuple

from .core import (
    EventId,
    MegState,
    PendingBuffer,
    Vertex,
    generate_add,
    ingest,
    init,
    make_vertex,
)
from .monitor import (
    MembershipDirectory,
    SignedEnvelope,
    SigningKey,
    sign_envelope,
    verify_envelope,
)
from .network import (
    BackfillRequest,
    BackfillResponse,
    DeliveryGuarantee,
    GossipMessage,
    Network,
    NetworkConfig,
    Partition,
    TraceEvent,
)

BACKFILL_BATCH = 100
DUMMY_D = 10


class ScenarioError(ValueError):
    """A scenario file or dict violates a structural constraint."""


def _int(value: object, name: str) -> int:
    """`value` itself if it is an int; a bool, float or string is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return value


def _ints(values: object, kind: type, name: str) -> tuple | frozenset:
    """`values` itself if it is a `kind` (tuple or frozenset) of ints."""
    if not isinstance(values, kind):
        raise ScenarioError(f"{name} must be a {kind.__name__} of integers, got {values!r}")
    for value in values:
        _int(value, name)
    return values


# -- adversary description ----------------------------------------------------


class Equivocate(NamedTuple):
    """Send one operation to subset_a and a different one to subset_b.

    Both are made against the same snapshot before either is applied, so they
    share parents but differ in content and sequence number, hence in id.
    The equivocator keeps its own state valid by absorbing both.  On the wire
    this is indistinguishable from two senders that each crashed after
    reaching part of the group.
    """

    subset_a: tuple[int, ...]
    subset_b: tuple[int, ...]
    at_round: int = 0

    def check(self, spec: ScenarioSpec) -> tuple[int, ...]:
        """Check each field's type, then its range; return the replica indices named."""
        if not 0 <= _int(self.at_round, "at_round") < spec.horizon:
            raise ScenarioError(f"at_round must be in [0, {spec.horizon}), got {self.at_round}")
        return _ints(self.subset_a, tuple, "subset_a") + _ints(self.subset_b, tuple, "subset_b")

    def act(self, sim: Simulation, node: ReplicaNode, t: int) -> bool:
        """Run this behavior at `node` for tick t; True if it sent anything."""
        if t != self.at_round:
            return False
        env_a = node.make_op("msg", node.random_body())
        env_b = node.make_op("msg", node.random_body())
        sim.send_own(node.idx, env_a, self.subset_a)
        sim.send_own(node.idx, env_b, self.subset_b)
        return True


class Withhold(NamedTuple):
    """Send workload operations to everyone except `skip`."""

    skip: tuple[int, ...]

    def check(self, spec: ScenarioSpec) -> tuple[int, ...]:
        return _ints(self.skip, tuple, "skip")

    def act(self, sim: Simulation, node: ReplicaNode, t: int) -> bool:
        sends = sim.spec.updates_per_round if t < sim.spec.rounds else 0
        for _ in range(sends):
            env = node.make_op("msg", node.random_body())
            sim.send_own(node.idx, env, set(range(sim.spec.n)) - set(self.skip))
        return sends > 0


class OrphanFlood(NamedTuple):
    """Emit `rate` validly signed operations per round whose parents do not exist."""

    rate: int

    def check(self, spec: ScenarioSpec) -> tuple[int, ...]:
        if _int(self.rate, "rate") < 0:
            raise ScenarioError(f"rate must be at least 0, got {self.rate}")
        return ()

    def act(self, sim: Simulation, node: ReplicaNode, t: int) -> bool:
        sends = self.rate if t < sim.spec.rounds else 0
        for _ in range(sends):
            parents = (sim.orphan_rng.randbytes(32), sim.orphan_rng.randbytes(32))
            sim.net.broadcast(node.idx, node.make_op("msg", node.random_body(), parents=parents))
        return sends > 0


# Named tuples of different shapes, so behaviors of two kinds never compare equal.
# Each checks its own fields for the spec (`check`) and acts in the run (`act`).
Behavior = Equivocate | Withhold | OrphanFlood


class AdversarySpec(NamedTuple):
    byzantine: frozenset[int]
    behaviors: tuple[Behavior, ...] = ()


# -- scenario ------------------------------------------------------------------


# A dataclass, not a NamedTuple: `__post_init__` checks every spec built.
@dataclass(frozen=True, kw_only=True)
class ScenarioSpec(NetworkConfig):
    """A scenario: its link (the `NetworkConfig` fields; the spec is the
    transport's config), replicas, adversary, workload and length.

    Every spec is checked here once, parsed or built in code (by
    `dataclasses.replace` too).  First each field's type, so that no later
    check raises anything but `ScenarioError`: an integer is an int, not a
    bool; a number an int or a float; a record of its class, and each
    behavior checks its own fields.  Then the ranges, the link's included.
    """

    n: int
    f: int
    adversary: AdversarySpec | None
    rounds: int
    updates_per_round: int
    d: int
    dummy_threshold: int
    dummy_d: int
    gossip_period: int
    horizon: int
    grace: int

    def __post_init__(self) -> None:
        # Each annotation is a string, so this finds every int and float field.
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "int":
                _int(value, field.name)
            elif field.type == "float" and type(value) not in (int, float):
                raise ScenarioError(f"{field.name} must be a number, got {value!r}")
        if not isinstance(self.guarantee, DeliveryGuarantee):
            raise ScenarioError(f"unknown guarantee {self.guarantee!r}")
        _ints(self.delay, tuple, "delay")
        if len(self.delay) != 2:
            raise ScenarioError("delay must be a [lo, hi] pair")
        partitions = self.partitions
        if not (isinstance(partitions, tuple) and all(isinstance(p, Partition) for p in partitions)):
            raise ScenarioError(f"partitions must be a tuple of Partition, got {partitions!r}")
        named: list[int] = []
        for part in partitions:
            _int(part.start, "partition start")
            _int(part.end, "partition end")
            named += _ints(part.side_a, frozenset, "partition side")
        adversary = self.adversary
        if adversary is not None:
            if not isinstance(adversary, AdversarySpec):
                raise ScenarioError(f"adversary must be an AdversarySpec or None, got {adversary!r}")
            named += _ints(adversary.byzantine, frozenset, "byzantine")
            behaviors = adversary.behaviors
            if not (isinstance(behaviors, tuple) and all(isinstance(b, Behavior) for b in behaviors)):
                raise ScenarioError(f"behaviors must be a tuple of behaviors, got {behaviors!r}")
            for b in behaviors:
                named += b.check(self)
        # Ranges, now that every field has its type.
        if self.n < 1:
            raise ScenarioError("n must be at least 1")
        if not (0 <= self.f < self.n):
            raise ScenarioError(f"need 0 <= f < n, got f={self.f} n={self.n}")
        if self.d < 2:
            raise ScenarioError("parent cap d must be at least 2")
        if self.rounds < 0 or self.updates_per_round < 0:
            raise ScenarioError("rounds and updates_per_round must be non-negative")
        if self.horizon < 1 or self.grace < 1:
            raise ScenarioError("horizon and grace must be positive")
        if self.dummy_threshold < 0 or self.gossip_period < 0:
            raise ScenarioError("dummy_threshold and gossip_period must be non-negative")
        if self.dummy_threshold > 0 and self.dummy_d < 2:
            raise ScenarioError("dummy_d must be at least 2 when dummies are enabled")
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        # Every replica index the spec names, checked against [0, n) in one place.
        out_of_range = sorted({i for i in named if not 0 <= i < self.n})
        if out_of_range:
            raise ScenarioError(f"replica indices {out_of_range} out of range [0, {self.n})")
        for part in partitions:
            if part.end > self.horizon:
                raise ScenarioError(
                    f"partition [{part.start}, {part.end}) must heal within horizon {self.horizon}"
                )
            if not part.side_a or len(part.side_a) == self.n:
                raise ScenarioError("partition side must be a non-empty proper subset")
        if adversary is not None:
            if len(adversary.byzantine) != self.f:
                raise ScenarioError(f"adversary names {len(adversary.byzantine)} replicas but f={self.f}")
            if adversary.behaviors and not adversary.byzantine:
                raise ScenarioError("adversary behaviors need a byzantine replica to act")
        elif self.f != 0:
            raise ScenarioError("f > 0 requires an adversary naming the faulty replicas")


SCENARIO_KEYS = frozenset(f.name for f in fields(ScenarioSpec))
# Each guarantee by its name, and the Reliable transport's old name, kept
# while the benchmark's causal-clean spec and the fuzz generator's cases use it.
_GUARANTEES = {g.value: g for g in DeliveryGuarantee}
_GUARANTEES["CausalOrderReliable"] = DeliveryGuarantee.RELIABLE


def _tuple(value: object) -> object:
    """A JSON list as a tuple; anything else as it is, for the spec to check."""
    return tuple(value) if isinstance(value, list) else value


def _refuse_unexpected(raw: dict, allowed: set[str], what: str) -> None:
    unexpected = sorted(set(raw) - allowed)
    if unexpected:
        raise ScenarioError(f"{what} keys unexpected: {unexpected}")


def _parse_behavior(raw: dict) -> Behavior:
    """The behavior `raw["kind"]` names, built from its own fields."""
    kind = raw.get("kind")
    cls = {"equivocate": Equivocate, "withhold": Withhold, "orphan_flood": OrphanFlood}.get(kind)
    if cls is None:
        raise ScenarioError(f"unknown adversary behavior kind: {kind!r}")
    _refuse_unexpected(raw, {"kind", *cls._fields}, f"{kind} behavior")
    return cls(**{name: _tuple(raw[name]) for name in cls._fields if name in raw})


def _partition(start: object, end: object, side_a: Iterable) -> Partition:
    return Partition(start, end, frozenset(side_a))


def parse_scenario(raw: dict) -> ScenarioSpec:
    """Map a scenario dict to its `ScenarioSpec`, which checks every field.

    The dict holds exactly the documented keys, and the adversary block and
    each behavior no others (`behaviors` and `at_round` may be left out).
    The guarantee is read by name; lists become tuples, frozensets (sides,
    `byzantine`) and records.  Nothing is coerced, so `3.9`, `true` or `"1"`
    where an integer belongs is a `ScenarioError` from the spec; a value
    that cannot be mapped (a number where a list belongs) is one from here.
    """
    try:
        if set(raw) != SCENARIO_KEYS:
            missing, extra = sorted(SCENARIO_KEYS - set(raw)), sorted(set(raw) - SCENARIO_KEYS)
            raise ScenarioError(f"scenario keys mismatch: missing={missing} unexpected={extra}")
        adversary = raw["adversary"]
        if adversary is not None:
            _refuse_unexpected(adversary, set(AdversarySpec._fields), "adversary")
            adversary = AdversarySpec(
                byzantine=frozenset(adversary["byzantine"]),
                behaviors=tuple(_parse_behavior(b) for b in adversary.get("behaviors", ())),
            )
        return ScenarioSpec(
            **{
                **raw,
                "guarantee": _GUARANTEES.get(raw["guarantee"], raw["guarantee"]),
                "delay": _tuple(raw["delay"]),
                "partitions": tuple(_partition(*item) for item in raw["partitions"]),
                "adversary": adversary,
            }
        )
    except (TypeError, KeyError, AttributeError) as exc:
        raise ScenarioError(f"malformed scenario ({type(exc).__name__}: {exc})") from exc


def load_scenario(path: str | Path) -> ScenarioSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(raw)


# -- replica -------------------------------------------------------------------


def extremities_consistent(state: MegState) -> bool:
    """Recompute extremities from the parent lists and compare with bookkeeping."""
    with_child = {p for v in state.vertices.values() for p in v.parents}
    expected = set(state.vertices) - with_child
    return bool(expected) and state.get_extremities() == expected


class ReplicaNode:
    """One replica: verification gate, DAG state and pending buffer.

    Each event but the root is held once, as its signed envelope: in the
    state once applied, in the buffer while it waits.  An id is held when
    it is in the state or in the buffer.
    """

    def __init__(
        self,
        idx: int,
        key: SigningKey,
        directory: MembershipDirectory,
        room: str,
        d: int,
        seed: int,
        byzantine: bool = False,
    ) -> None:
        self.idx = idx
        self.key = key
        self.directory = directory
        self.d = d
        self.byzantine = byzantine
        self.state = init(room)
        self.buffer = PendingBuffer()
        # (due tick, op id, sender) of buffered arrivals not yet asked about.
        self._deadlines: list[tuple[int, EventId, int]] = []
        # Per peer, the last request its gossip triggered: (the ids, as the
        # frozenset sent, the extremities that gossip advertised, answered).
        self._asked: dict[int, tuple[frozenset[EventId], frozenset[EventId], bool]] = {}
        self.parent_rng = Random(f"{seed}:parents:{idx}")
        self.payload_rng = Random(f"{seed}:payload:{idx}")
        self.seq = 0
        self.stale_parent_ops = 0
        self.rejected_ops = 0
        self.invariant_failures = 0

    @property
    def applied(self) -> set[EventId]:
        """Every vertex id but the root's: built on each read, to grade a run."""
        return self.state.vertices.keys() - {self.state.root}

    def random_body(self) -> bytes:
        return self.payload_rng.randbytes(8)

    def make_op(
        self,
        kind: str,
        body: bytes,
        d: int | None = None,
        parents: tuple[EventId, ...] | None = None,
    ) -> SignedEnvelope:
        """Sign the next operation: on `parents`, else on extremities picked with cap `d`."""
        sender = self.key.replica_id
        if parents is None:
            v = generate_add(self.state, kind, body, d or self.d, self.parent_rng, sender, self.seq)
        else:
            v = make_vertex(kind, body, sender, self.seq, parents)
        self.seq += 1
        return sign_envelope(v, self.key)

    def receive_envelope(self, env: SignedEnvelope) -> list[EventId]:
        """Verify, then absorb.  Returns the event ids applied."""
        if verify_envelope(env, self.directory) is not None:
            self.rejected_ops += 1
            return []
        return self.absorb(env)

    def absorb(self, env: SignedEnvelope) -> list[EventId]:
        """Deliver an own or verified envelope through `ingest`, which keeps
        the envelope as the vertex, and check what the delivery changed.
        Returns the event ids applied.

        Each applied vertex, in order, must be reported once and have a
        non-empty, duplicate-free parent list of vertices present before it.
        The vertex count must grow by exactly the number applied, so each is
        new (edges exist only in the parent lists, so this stands in for an
        edge count), and the extremities must end as the old set with each
        vertex's parents removed and the vertex added.  If the graph was a
        rooted DAG with consistent extremities before the delivery and the
        check passes, it still is one after, so O(width + parents) per
        delivery stands in for a whole-graph walk.

        A vertex whose parents are not all among the replayed extremities had
        a parent that was already covered: a late or deliberately old
        reference, accepted but counted in `stale_parent_ops`.
        """
        state = self.state
        extremities = set(state.extremities_view())
        count = len(state.vertices)
        applied = ingest(state, self.buffer, env)
        this_or_later = set(applied)
        ok = len(this_or_later) == len(applied)
        for vid in applied:
            parents = state.vertices[vid].parents
            ok = (
                ok
                and bool(parents)
                and len(set(parents)) == len(parents)
                and all(p in state.vertices and p not in this_or_later for p in parents)
            )
            if not extremities.issuperset(parents):
                self.stale_parent_ops += 1
            this_or_later.discard(vid)
            extremities.difference_update(parents)
            extremities.add(vid)
        grown = len(state.vertices) == count + len(applied)
        if not (ok and grown and extremities == state.extremities_view()):
            self.invariant_failures += 1
        return applied

    def route(self, net: Network, sender: int, msg: object) -> bool:
        """Handle one message `net` delivered; True if it applied an operation.

        Byzantine replicas take operations in, but count no activity and
        stay silent on the auxiliary protocols.

        An operation copy or backfill envelope whose id is held, so in the
        state or in the buffer (possibly through an earlier envelope of the
        same response), is skipped before verification: ids are content
        hashes, so it could add nothing (this assumes an id names one
        content; see `meg.monitor`).  A forged envelope that reuses a held id
        is therefore dropped without counting in `rejected_ops`.  An id that
        is not `bytes` is never held; the gate rejects it as MALFORMED_FIELD.

        An operation that arrives before its parents is buffered.  Under
        BestEffort a dropped parent never arrives, so the replica asks the
        sender for the parents it lacks at once, and again on each later
        copy.  Under Reliable a correct sender's parent arrives within
        `delay[1]` ticks unless a partition holds it, so the copy that buffers
        the operation arms one deadline, and the replica asks only if it is
        still buffered then (`request_overdue`).

        Gossip is answered with a request for the advertised ids the replica
        lacks and the parents its buffer misses, unless the peer already
        answered that very request and has applied nothing since: no request
        is sent when it would name exactly the ids of the last one gossip from
        this peer triggered, the peer's answer to it has arrived (matched by
        the frozenset the answer echoes, which is the one that request sent),
        and the gossip advertises the same extremities as the gossip that
        triggered it.  This loses nothing.  A peer that applied anything
        advertises a new extremity, since the last vertex it applied has no
        applied child; so the same extremities mean the same vertices, and
        the walk it served from them would serve nothing more.  Only its
        pending buffer can differ, and an op held there alone has been
        applied by no correct replica.  A request still unanswered, because
        it is in flight or a partition cut it or its answer, is sent again.
        """
        state, buffer = self.state, self.buffer
        vertices, waiting = state.vertices, buffer.held
        if isinstance(msg, SignedEnvelope):
            vid = msg.id
            typed = type(vid) is bytes  # an id of any other type may not even hash
            held = typed and (vid in vertices or vid in waiting)
            applied = [] if held else self.receive_envelope(msg)
            if typed and not self.byzantine and vid in waiting:
                if net.config.guarantee is DeliveryGuarantee.BEST_EFFORT:
                    net.request_backfill(self.idx, sender, self._lacking(msg.parents))
                elif not held:
                    due = net.tick + net.config.delay[1]
                    heapq.heappush(self._deadlines, (due, vid, sender))
        elif self.byzantine:
            return False
        elif isinstance(msg, BackfillResponse):
            asked = self._asked.get(sender)
            if asked is not None and asked[0] is msg.answers:
                self._asked[sender] = (asked[0], asked[1], True)
            applied = []
            for env in msg.envelopes:
                vid = env.id
                if type(vid) is not bytes or (vid not in vertices and vid not in waiting):
                    applied += self.receive_envelope(env)
        else:
            if isinstance(msg, GossipMessage):
                advertised = msg.extremities
                unknown = {w for w in advertised.difference(state.vertices) if w not in buffer}
                missing = buffer.missing_parent_ids(state)
                wanted = unknown | missing if unknown else missing
                asked = self._asked.get(sender)
                if asked is not None and asked[1] == advertised and asked[0] == wanted:
                    if asked[2]:
                        return False
                    # Sent again as the same frozenset: served after this
                    # peer advertised these extremities, as the first was.
                    wanted = asked[0]
                elif wanted:
                    # A frozenset of its own, which no earlier request sent.
                    wanted = frozenset(list(wanted))
                    self._asked[sender] = (wanted, advertised, False)
                net.request_backfill(self.idx, sender, wanted)
            elif isinstance(msg, BackfillRequest):
                net.respond_backfill(self.idx, sender, msg.missing, self.serve_backfill(msg.missing))
            return False
        return bool(applied) and not self.byzantine

    def _lacking(self, parents: tuple[EventId, ...]) -> set[EventId]:
        return {p for p in parents if not self.state.lookup(p)}

    def request_overdue(self, net: Network) -> None:
        """Ask once for the parents of arrivals still buffered past their window.

        Nothing is re-armed: gossip is the retry path.
        """
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] <= net.tick:
            _, vid, sender = heapq.heappop(deadlines)
            op = self.buffer.held.get(vid)
            if op is not None:
                net.request_backfill(self.idx, sender, self._lacking(op.parents))

    def serve_backfill(self, missing: frozenset[EventId]) -> tuple[SignedEnvelope, ...]:
        """Ancestor closure of the requested ids among the held envelopes.

        Breadth-first from the requested ids so the requested events and near
        ancestors come first; capped at `BACKFILL_BATCH` envelopes per
        response, the requester retries for the rest on its next trigger.
        It walks the state and the buffer, but never serves the unsigned root.
        """
        vertices, held, limit = self.state.vertices, self.buffer.held, BACKFILL_BATCH
        out: list[SignedEnvelope] = []
        seen: set[EventId] = {self.state.root}
        frontier = sorted(((vertices.keys() & missing) | missing.intersection(held)) - seen)
        while frontier and len(out) < limit:
            nxt: list[EventId] = []
            for mid in frontier:
                seen.add(mid)
                env = vertices[mid] if mid in vertices else held[mid]
                out.append(env)
                if len(out) >= limit:
                    break
                for p in env.parents:
                    if p not in seen and (p in vertices or p in held):
                        nxt.append(p)
            frontier = sorted(set(nxt) - seen)
        return tuple(out)


def maybe_emit_dummy(node: ReplicaNode, threshold: int, dummy_d: int) -> SignedEnvelope | None:
    """Emit an empty add to soak up extremities, if there are more than `threshold`.

    The dummy references up to `dummy_d` parents, so idle replicas pull the
    width down toward the level the urn analysis predicts for k emitters.
    """
    if node.state.width() <= threshold:
        return None
    return node.make_op("dummy", b"", d=dummy_d)


# -- metrics and verdict ---------------------------------------------------------


class Metrics(NamedTuple):
    width: list[list[int]]
    buffer_occupancy: list[list[int]]
    applied_counts: list[int]
    stale_parent_ops: list[int]
    rejected_ops: list[int]
    convergence_tick: int | None
    quiescence_tick: int | None
    trace: list[TraceEvent]
    final_digests: list[bytes]
    applied_sets: list[set[EventId]]
    correct_indices: tuple[int, ...]
    correct_broadcast_ids: set[EventId]
    buffered_correct_origin: list[int]


class Verdict(NamedTuple):
    strong_convergence: bool
    eventual_delivery: bool
    termination: bool
    dag_invariants: bool

    def all_ok(self) -> bool:
        return (
            self.strong_convergence
            and self.eventual_delivery
            and self.termination
            and self.dag_invariants
        )


def check_strong_convergence(replicas: list[tuple[set[EventId], bytes]]) -> bool:
    """Equal applied sets must imply equal digests, for every pair."""
    for i in range(len(replicas)):
        for j in range(i + 1, len(replicas)):
            seta, diga = replicas[i]
            setb, digb = replicas[j]
            if seta == setb and diga != digb:
                return False
    return True


def check_eventual_delivery(metrics: Metrics) -> bool:
    """Correct-origin and correct-applied operations must reach every correct replica.

    Operations a byzantine replica kept to itself do not count, but once any
    correct replica has applied an operation, all of them must.  Buffers may
    hold leftovers only if those operations came from byzantine senders.
    """
    correct = metrics.correct_indices
    if not correct:
        return True
    applied_union: set[EventId] = set()
    for i in correct:
        applied_union |= metrics.applied_sets[i]
    required = metrics.correct_broadcast_ids | applied_union
    for i in correct:
        if not required <= metrics.applied_sets[i]:
            return False
        if metrics.buffered_correct_origin[i]:
            return False
    return True


def width_series_csv(metrics: Metrics) -> str:
    lines = ["tick,replica,width"]
    horizon = len(metrics.width[0]) if metrics.width else 0
    for t in range(horizon):
        for r in range(len(metrics.width)):
            lines.append(f"{t},{r},{metrics.width[r][t]}")
    return "\n".join(lines) + "\n"


def trace_tsv(metrics: Metrics) -> str:
    return "\n".join(ev.line() for ev in metrics.trace) + "\n"


# -- scenario execution ----------------------------------------------------------


class Simulation:
    """One scenario, driven one tick at a time by `step()` and graded by `finish()`."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.adversary = spec.adversary or AdversarySpec(frozenset())
        self.byzantine = self.adversary.byzantine
        self.correct = tuple(i for i in range(spec.n) if i not in self.byzantine)
        keys = [SigningKey.from_seed(f"{spec.seed}:replica:{i}") for i in range(spec.n)]
        directory = MembershipDirectory(
            {k.replica_id: k.verification_key for k in keys}, f=spec.f
        )
        room = f"scenario:{spec.seed}"
        self.nodes = [
            ReplicaNode(i, keys[i], directory, room, spec.d, spec.seed, byzantine=i in self.byzantine)
            for i in range(spec.n)
        ]
        self.net = Network(spec.n, spec)
        self.orphan_rng = Random(f"{spec.seed}:orphans")
        self.correct_broadcast: set[EventId] = set()
        self.width = [[0] * spec.horizon for _ in range(spec.n)]
        self.occupancy = [[0] * spec.horizon for _ in range(spec.n)]
        # A full grace window after the last tick with activity.
        self.settled_at = 0

    def send_own(self, i: int, env: SignedEnvelope, targets: Iterable[int] | None = None) -> None:
        self.nodes[i].absorb(env)
        self.net.broadcast(i, env, targets)
        if i not in self.byzantine:
            self.correct_broadcast.add(env.id)

    def append(self, i: int) -> None:
        """A client append at replica i: a fresh operation sent to everyone."""
        self.send_own(i, self.nodes[i].make_op("msg", self.nodes[i].random_body()))

    def step(self) -> None:
        """Run the next tick; a run has `spec.horizon` of them."""
        spec, net, nodes = self.spec, self.net, self.nodes
        t = net.tick
        activity = False
        if t < spec.rounds:
            for i in self.correct:
                for _ in range(spec.updates_per_round):
                    self.append(i)
                    activity = True
        for b in sorted(self.byzantine):
            for behavior in self.adversary.behaviors:
                activity = behavior.act(self, nodes[b], t) or activity
        if spec.dummy_threshold > 0:
            for i in self.correct:
                env = maybe_emit_dummy(nodes[i], spec.dummy_threshold, spec.dummy_d)
                if env is not None:
                    self.send_own(i, env)
                    activity = True
        if spec.gossip_period > 0 and t > 0 and t % spec.gossip_period == 0:
            for i in self.correct:
                net.gossip_extremities(i, nodes[i].state.get_extremities())
        for i in self.correct:
            nodes[i].request_overdue(net)
        for receiver, sender, msg in net.step():
            activity = nodes[receiver].route(net, sender, msg) or activity
        for i, node in enumerate(nodes):
            self.width[i][t] = node.state.width()
            self.occupancy[i][t] = len(node.buffer)
        if activity:
            self.settled_at = t + spec.grace

    def finish(self) -> tuple[Metrics, Verdict]:
        """Grade the run; call once the horizon has been stepped through."""
        spec, nodes, correct = self.spec, self.nodes, self.correct
        quiescence_tick: int | None = self.settled_at
        if quiescence_tick >= spec.horizon or self.net.pending_payload():
            quiescence_tick = None
        final_digests = [node.state.state_digest() for node in nodes]
        converged = len({final_digests[i] for i in correct}) == 1
        correct_ids = {nodes[i].key.replica_id for i in correct}
        applied_sets = [node.applied for node in nodes]
        metrics = Metrics(
            width=self.width,
            buffer_occupancy=self.occupancy,
            applied_counts=[len(applied) for applied in applied_sets],
            stale_parent_ops=[node.stale_parent_ops for node in nodes],
            rejected_ops=[node.rejected_ops for node in nodes],
            convergence_tick=quiescence_tick if converged else None,
            quiescence_tick=quiescence_tick,
            trace=self.net.trace,
            final_digests=final_digests,
            applied_sets=applied_sets,
            correct_indices=correct,
            correct_broadcast_ids=self.correct_broadcast,
            buffered_correct_origin=[
                sum(1 for v in node.buffer.operations() if v.sender in correct_ids)
                for node in nodes
            ],
        )
        verdict = Verdict(
            strong_convergence=check_strong_convergence(
                [(metrics.applied_sets[i], metrics.final_digests[i]) for i in correct]
            ),
            eventual_delivery=check_eventual_delivery(metrics),
            termination=quiescence_tick is not None,
            dag_invariants=all(
                node.invariant_failures == 0
                and node.state.is_rooted_dag()
                and extremities_consistent(node.state)
                for node in nodes
            ),
        )
        return metrics, verdict


def run_scenario(spec: ScenarioSpec) -> tuple[Metrics, Verdict]:
    """Execute one scenario deterministically and grade it."""
    sim = Simulation(spec)
    for _ in range(spec.horizon):
        sim.step()
    return sim.finish()


# -- lockstep round mode -----------------------------------------------------------


def run_lockstep_rounds(
    n: int,
    d: int,
    rounds: int,
    seed: int,
    u0: int | None = None,
    dummy_threshold: int | None = None,
) -> list[int]:
    """Synchronized rounds: everyone appends concurrently, then full sync.

    Each round, every replica generates one operation against the identical
    shared state (their parent picks are concurrent), then all operations are
    applied everywhere before the next round.  With `dummy_threshold` set the
    workload is idle and replicas emit dummies only while the width exceeds
    the threshold.  Returns the extremity count per round, index 0 being the
    starting width.  Every operation, dummies included, takes up to `d`
    parents; `d` must be at least 2, and `u0` must not be negative.
    """
    if n < 1 or rounds < 0:
        raise ValueError("need n >= 1 and rounds >= 0")
    if u0 is not None and u0 < 0:
        raise ValueError(f"u0 must be non-negative, got {u0}")
    if d < 2:
        raise ValueError(f"parent cap must be at least 2, got {d}")
    state = init("lockstep")
    senders = [SigningKey.from_seed(f"{seed}:lockstep:{i}").replica_id for i in range(n)]
    rngs = [Random(f"{seed}:lockstep-rng:{i}") for i in range(n)]
    seqs = [0] * n
    if u0:
        root = state.root
        for j in range(u0):
            v = make_vertex("msg", j.to_bytes(4, "big"), senders[j % n], seqs[j % n], (root,))
            state.apply_add(v)
            seqs[j % n] += 1
    widths = [state.width()]
    for _ in range(rounds):
        ops: list[Vertex] = []
        current_width = state.width()
        for i in range(n):
            if dummy_threshold is not None:
                if current_width <= dummy_threshold:
                    continue
                kind, body = "dummy", b""
            else:
                kind, body = "msg", rngs[i].randbytes(8)
            ops.append(generate_add(state, kind, body, d, rngs[i], senders[i], seqs[i]))
            seqs[i] += 1
        for op in ops:
            state.apply_add(op)
        widths.append(state.width())
    return widths
