"""Transport behavior per guarantee: ordering, duplicates, partitions, determinism.

The transport filters no duplicates; the duplicate tests route its deliveries
into replicas, which skip the copies whose ids they already hold.
"""

from collections import defaultdict
from contextlib import contextmanager
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meg import harness
from meg.core import generate_add, init
from meg.harness import ReplicaNode
from meg.monitor import MembershipDirectory, SignedEnvelope, SigningKey, sign_envelope
from meg.network import (
    BackfillRequest,
    BackfillResponse,
    DeliveryGuarantee,
    GossipMessage,
    Network,
    NetworkConfig,
    Partition,
    TraceEvent,
)

KEYS = [SigningKey.from_seed(f"net-test:{i}") for i in range(4)]
DIRECTORY = MembershipDirectory({k.replica_id: k.verification_key for k in KEYS}, f=0)


class Chain:
    """One sender's growing event chain, for producing envelopes on demand."""

    def __init__(self, i: int, room: str = "net") -> None:
        self.state = init(room)
        self.key = KEYS[i]
        self.rng = Random(f"chain:{i}")
        self.seq = 0

    def env(self, body: bytes = b""):
        op = generate_add(
            self.state, "msg", body, 2, self.rng, self.key.replica_id, self.seq
        )
        self.seq += 1
        self.state.apply_add(op)
        return op, sign_envelope(op, self.key)


def drain(net, max_ticks=10_000):
    """Step until no scheduled work remains; returns all deliveries."""
    out = []
    for _ in range(max_ticks):
        out.extend(net.step())
        if net.queue_empty():
            break
    return out


def op_deliveries(deliveries):
    return [(r, s, m) for (r, s, m) in deliveries if isinstance(m, SignedEnvelope)]


def replicas(n):
    """Replicas over the same room as `Chain`, so its envelopes apply."""
    return [ReplicaNode(i, KEYS[i], DIRECTORY, "net", 2, seed=0) for i in range(n)]


def route(nodes, net, deliveries):
    for receiver, sender, msg in deliveries:
        nodes[receiver].route(net, sender, msg)


def drain_into(nodes, net, max_ticks=10_000):
    """`drain`, routing each delivery into its replica as it is handed over."""
    for _ in range(max_ticks):
        route(nodes, net, net.step())
        if net.queue_empty():
            break


@contextmanager
def watched():
    """Yield (ids applied per replica index, the `verify_envelope` mock) while replicas run."""
    applied = defaultdict(list)
    absorb = ReplicaNode.absorb

    def recorded(node, env):
        ids = absorb(node, env)
        applied[node.idx].extend(ids)
        return ids

    with mock.patch.object(ReplicaNode, "absorb", recorded), mock.patch.object(
        harness, "verify_envelope", wraps=harness.verify_envelope
    ) as verify:
        yield applied, verify


def reliable_net(n=3, **kw):
    return Network(n, NetworkConfig(DeliveryGuarantee.RELIABLE, **kw))


# -- config validation -----------------------------------------------------------


def test_config_validation():
    best_effort, reliable = DeliveryGuarantee.BEST_EFFORT, DeliveryGuarantee.RELIABLE
    with pytest.raises(ValueError):
        NetworkConfig(best_effort, delay=(0, 5))
    with pytest.raises(ValueError):
        NetworkConfig(best_effort, delay=(6, 5))
    with pytest.raises(ValueError):
        NetworkConfig(best_effort, drop=1.5)
    with pytest.raises(ValueError):
        NetworkConfig(best_effort, partitions=(Partition(5, 5, frozenset({0})),))
    assert NetworkConfig(best_effort, drop=0.2).drop == 0.2
    with pytest.raises(ValueError, match="requires drop probability 0"):
        NetworkConfig(reliable, drop=0.2)
    with pytest.raises(ValueError):
        Network(0, NetworkConfig(reliable))


def test_trace_event_line_is_tab_separated():
    # The record holds the id; the line shows its first 16 hex digits.
    ev = TraceEvent(7, "DELIVER", 0, 2, bytes.fromhex("ab" * 8 + "cd" * 24))
    assert ev.line() == "7\tDELIVER\tr0\tr2\t" + "ab" * 8
    assert TraceEvent(3, "GOSSIP", 1, 0, None).line() == "3\tGOSSIP\tr1\tr0\t-"
    # A send to everyone has no receiver.
    assert TraceEvent(0, "SEND", 12, None, b"\x01" * 32).line() == "0\tSEND\tr12\t*\t" + "01" * 8


# -- reliable ----------------------------------------------------------------------


def test_reliable_delivers_to_every_other_replica():
    net = reliable_net(seed=1)
    _, env = Chain(0).env()
    net.broadcast(0, env)
    got = op_deliveries(drain(net))
    assert sorted(r for r, _, _ in got) == [1, 2]


def test_reliable_duplicates_skipped_as_held():
    # Both copies are handed over; each replica verifies and applies the
    # first and skips the second, whose id its state already holds.
    net = reliable_net(seed=2, duplicate=1.0)
    nodes = replicas(3)
    _, env = Chain(0).env()
    vid = env.id
    with watched() as (applied, verify):
        nodes[0].absorb(env)
        net.broadcast(0, env)
        drain_into(nodes, net)
    assert [ev.kind for ev in net.trace] == ["SEND"] + ["DELIVER"] * 4
    assert dict(applied) == {0: [vid], 1: [vid], 2: [vid]}
    assert verify.call_count == 2


def test_reliable_reorders_across_senders():
    # With a wide delay spread, raw arrival order differs from send order.
    net = reliable_net(n=2, delay=(1, 100), seed=4)
    chain = Chain(0)
    envs = [chain.env(bytes([i]))[1] for i in range(8)]
    for env in envs:
        net.broadcast(0, env)
    got = op_deliveries(drain(net))
    assert [m for _, _, m in got] != envs


def test_reliable_delivers_each_send_to_its_targets():
    # Receiver 2 is left out of the first send; it still gets the second.
    net = reliable_net(delay=(1, 5), seed=14)
    key = KEYS[0]
    op_1, op_2 = (
        generate_add(init("net"), "msg", body, 2, Random(0), key.replica_id, seq)
        for seq, body in enumerate((b"one", b"two"))
    )
    net.broadcast(0, sign_envelope(op_1, key), targets=(1,))
    net.broadcast(0, sign_envelope(op_2, key))
    got = op_deliveries(drain(net))
    assert {(r, m.id) for r, _, m in got} == {
        (1, op_1.id),
        (1, op_2.id),
        (2, op_2.id),
    }
    assert net.queue_empty()


def test_reliable_resent_envelope_is_skipped_and_later_sends_apply():
    # x goes out twice; the replica skips its second copy unverified, and y,
    # sent after it, still applies.
    net = reliable_net(n=2, delay=(1, 1), seed=3)
    nodes = replicas(2)
    chain = Chain(0)
    x, y = chain.env(b"x")[1], chain.env(b"y")[1]
    with watched() as (applied, verify):
        for env in (x, x, y):
            net.broadcast(0, env)
        drain_into(nodes, net)
    assert [ev.kind for ev in net.trace if ev.kind != "SEND"] == ["DELIVER"] * 3
    assert applied[1] == [x.id, y.id]
    assert verify.call_count == 2
    assert net.queue_empty()


@given(
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    hi=st.integers(min_value=1, max_value=15),
    duplicate=st.sampled_from([0.0, 0.3]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_resent_envelopes_drain_and_deliver_each_id_once(n, seed, hi, duplicate, data):
    # Senders extend one shared DAG and broadcast to everyone; now and then a
    # sender re-sends one of its earlier envelopes.  Every replica applies
    # each id once and verifies each id it did not send once.
    net = reliable_net(n, delay=(1, hi), duplicate=duplicate, seed=seed)
    nodes = replicas(n)
    state, rng = init("net"), Random(seed)
    sent: list[list] = [[] for _ in range(n)]
    with watched() as (applied, verify):
        for step in range(data.draw(st.integers(min_value=1, max_value=25))):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            if sent[i] and data.draw(st.booleans()):
                net.broadcast(i, data.draw(st.sampled_from(sent[i])))
            else:
                sender = KEYS[i].replica_id
                op = generate_add(state, "msg", bytes([step]), 2, rng, sender, len(sent[i]))
                state.apply_add(op)
                env = sign_envelope(op, KEYS[i])
                sent[i].append(env)
                nodes[i].absorb(env)
                net.broadcast(i, env)
            if data.draw(st.booleans()):
                route(nodes, net, net.step())
        drain_into(nodes, net)
    assert net.queue_empty()
    ids = sorted(env.id for envs in sent for env in envs)
    for node in nodes:
        assert sorted(applied[node.idx]) == ids
        assert len(node.buffer) == 0 and node.invariant_failures == 0
    assert verify.call_count == len(ids) * (n - 1)


# -- best effort -----------------------------------------------------------------------


def test_best_effort_drop_everything():
    net = Network(3, NetworkConfig(DeliveryGuarantee.BEST_EFFORT, drop=1.0, seed=8))
    net.broadcast(0, Chain(0).env()[1])
    assert op_deliveries(drain(net)) == []
    assert sum(1 for ev in net.trace if ev.kind == "DROP") == 2


def test_best_effort_delivers_duplicates():
    net = Network(2, NetworkConfig(DeliveryGuarantee.BEST_EFFORT, duplicate=1.0, seed=9))
    net.broadcast(0, Chain(0).env()[1])
    got = op_deliveries(drain(net))
    assert len(got) == 2


def test_next_open_tick_jumps_over_overlapping_partitions():
    parts = (
        Partition(5, 20, frozenset({0})),
        Partition(15, 40, frozenset({0, 1})),
        Partition(40, 45, frozenset({2})),
    )
    net = reliable_net(3, partitions=parts)

    def stepping(a, b, tick):
        t = tick
        while any(p.separates(a, b, t) for p in parts):
            t += 1
        return t

    assert net._next_open_tick(0, 2, 5) == 45
    for a in range(3):
        for b in range(3):
            for tick in range(50):
                assert net._next_open_tick(a, b, tick) == stepping(a, b, tick)


# -- auxiliary messages ------------------------------------------------------------------


def test_gossip_and_backfill_flow():
    net = reliable_net(seed=11)
    ids = frozenset({b"\x01" * 32})
    net.gossip_extremities(0, ids)
    got = drain(net)
    gossips = [(r, m) for r, _, m in got if isinstance(m, GossipMessage)]
    assert sorted(r for r, _ in gossips) == [1, 2]
    net.request_backfill(1, 0, ids)
    net.request_backfill(1, 0, frozenset())  # empty: not sent
    got = drain(net)
    reqs = [(r, m) for r, _, m in got if isinstance(m, BackfillRequest)]
    assert [r for r, _ in reqs] == [0]
    _, env = Chain(0).env()
    net.respond_backfill(0, 1, (env,))
    got = drain(net)
    resps = [(r, m) for r, _, m in got if isinstance(m, BackfillResponse)]
    assert [r for r, _ in resps] == [1]
    assert resps[0][1].envelopes == (env,)


def test_pending_payload_tracks_ops_not_gossip():
    net = reliable_net(seed=13)
    net.gossip_extremities(0, frozenset({b"\x01" * 32}))
    net.respond_backfill(0, 1, ())
    assert not net.pending_payload()
    net.broadcast(0, Chain(0).env()[1])
    assert net.pending_payload()
    drain(net)
    assert not net.pending_payload()


# -- the partition cut rule -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["op", "gossip", "request", "response"])
@pytest.mark.parametrize("guarantee", list(DeliveryGuarantee))
def test_cut_message_is_dropped_unless_a_reliable_op(guarantee, kind):
    # One message 0 -> 1, due at tick 2, inside a cut that heals at tick 50.
    # A reliable op is deferred to the heal and handed over once; every other
    # cut message is dropped, its line naming the id `_msg_id` gives it.
    cut = (Partition(0, 50, frozenset({0})),)
    net = Network(2, NetworkConfig(guarantee, delay=(2, 2), partitions=cut))
    env = Chain(0).env()[1]
    vid = env.id
    ids = frozenset({b"\x02" * 32, b"\x01" * 32})
    if kind == "op":
        net.broadcast(0, env)
        named = vid.hex()[:16]
    elif kind == "gossip":
        net.gossip_extremities(0, ids)
        named = "-"
    elif kind == "request":
        net.request_backfill(0, 1, ids)
        named = ("01" * 32)[:16]
    else:
        net.respond_backfill(0, 1, (env,))
        named = vid.hex()[:16]
    assert net.pending_payload() == (kind in ("op", "response"))
    got = drain(net)
    lines = [ev.line() for ev in net.trace if ev.kind != "SEND"]
    if kind == "op" and guarantee is not DeliveryGuarantee.BEST_EFFORT:
        assert got == [(1, 0, env)]
        assert lines == [f"50\tDELIVER\tr0\tr1\t{named}"]
    else:
        assert got == []
        assert lines == [f"2\tDROP\tr0\tr1\t{named}"]
    assert net.queue_empty() and not net.pending_payload()


# -- determinism ------------------------------------------------------------------------


def run_fixed_workload(seed):
    net = reliable_net(delay=(1, 30), seed=seed)
    chains = [Chain(i) for i in range(3)]
    for tick in range(5):
        for i in range(3):
            net.broadcast(i, chains[i].env(bytes([tick, i]))[1])
        net.step()
    drain(net)
    return [ev.line() for ev in net.trace]


def test_trace_is_deterministic_per_seed():
    assert run_fixed_workload(21) == run_fixed_workload(21)
    assert run_fixed_workload(21) != run_fixed_workload(22)


def test_equivocation_equals_two_crashing_senders():
    """Targeted sends from one sender look like two partial crash-sends."""

    def deliveries_with(split_senders: bool):
        net = reliable_net(4, delay=(2, 2), seed=30)
        mk = Chain(0)
        op_a, env_a = mk.env(b"fork-a")
        op_b, env_b = mk.env(b"fork-b")
        if split_senders:
            net.broadcast(0, env_a, targets=(1,))
            net.broadcast(3, env_b, targets=(2,))
        else:
            net.broadcast(0, env_a, targets=(1,))
            net.broadcast(0, env_b, targets=(2,))
        got = op_deliveries(drain(net))
        return {(r, m.id) for r, _, m in got}

    assert deliveries_with(False) == deliveries_with(True)
