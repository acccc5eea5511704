"""Scenario parsing, execution, verdict checkers, and the lockstep runner."""

import dataclasses
import gc
import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from meg.core import MegState, make_vertex
from meg.harness import (
    DUMMY_D,
    AdversarySpec,
    Equivocate,
    Metrics,
    OrphanFlood,
    ReplicaNode,
    ScenarioError,
    ScenarioSpec,
    Simulation,
    Withhold,
    check_eventual_delivery,
    check_strong_convergence,
    extremities_consistent,
    load_scenario,
    maybe_emit_dummy,
    parse_scenario,
    run_lockstep_rounds,
    run_scenario,
    trace_tsv,
    width_series_csv,
)
from meg import core, harness, monitor
from meg.monitor import MembershipDirectory, SigningKey, verify_envelope
from meg.network import (
    BackfillRequest,
    BackfillResponse,
    DeliveryGuarantee,
    GossipMessage,
    Network,
    NetworkConfig,
    Partition,
)
from meg.width import fixed_point

SCENARIOS = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"

BASE = {
    "n": 3,
    "f": 0,
    "guarantee": "Reliable",
    "delay": [1, 5],
    "drop": 0.0,
    "duplicate": 0.0,
    "partitions": [],
    "adversary": None,
    "rounds": 4,
    "updates_per_round": 2,
    "d": 2,
    "dummy_threshold": 0,
    "dummy_d": 10,
    "gossip_period": 0,
    "horizon": 200,
    "grace": 30,
    "seed": 5,
}


def spec_with(**overrides) -> ScenarioSpec:
    return parse_scenario({**BASE, **overrides})


# -- parsing -----------------------------------------------------------------------


def test_parse_round_trip():
    spec = spec_with()
    assert spec.n == 3
    assert spec.guarantee is DeliveryGuarantee.RELIABLE
    assert spec.delay == (1, 5)


def test_parse_rejects_missing_and_extra_keys():
    raw = dict(BASE)
    del raw["grace"]
    with pytest.raises(ScenarioError, match="missing"):
        parse_scenario(raw)
    with pytest.raises(ScenarioError, match="unexpected"):
        parse_scenario({**BASE, "bonus": 1})


def test_parse_rejects_bad_values():
    with pytest.raises(ScenarioError):
        spec_with(guarantee="Mostly")
    with pytest.raises(ScenarioError):
        spec_with(f=3)
    with pytest.raises(ScenarioError):
        spec_with(f=1)  # f > 0 without adversary
    with pytest.raises(ScenarioError):
        spec_with(delay=[1])
    with pytest.raises(ScenarioError):
        spec_with(partitions=[[0, 500, [0]]])  # does not heal within horizon
    with pytest.raises(ScenarioError):
        spec_with(partitions=[[0, 100, [0, 1, 2]]])  # not a proper subset
    with pytest.raises(ScenarioError):
        spec_with(drop=0.5)  # Reliable forbids drops
    with pytest.raises(ScenarioError):
        spec_with(adversary={"byzantine": [0], "behaviors": []})  # f says 0
    with pytest.raises(ScenarioError):
        spec_with(
            f=1,
            adversary={"byzantine": [0], "behaviors": [{"kind": "mystery"}]},
        )
    # Values of the wrong type or shape, which used to escape as TypeError
    # or KeyError.
    with pytest.raises(ScenarioError):
        parse_scenario(5)
    with pytest.raises(ScenarioError):
        spec_with(f=1, adversary={"byzantine": 3})
    with pytest.raises(ScenarioError):
        spec_with(partitions=7)
    with pytest.raises(ScenarioError):
        spec_with(f=1, adversary={"byzantine": [0], "behaviors": [{"kind": "withhold"}]})


def test_parse_rejects_a_float_count():
    with pytest.raises(ScenarioError, match="n must be an integer"):
        spec_with(n=3.9)


def test_parse_rejects_a_bool_count():
    with pytest.raises(ScenarioError, match="rounds must be an integer"):
        spec_with(rounds=True)


def test_parse_rejects_a_string_delay_bound():
    with pytest.raises(ScenarioError, match="delay must be an integer"):
        spec_with(delay=["1", 5])


def test_parse_rejects_a_non_numeric_string_count():
    with pytest.raises(ScenarioError, match="n must be an integer"):
        spec_with(n="x")


EQUIVOCATOR = {
    "byzantine": [2],
    "behaviors": [{"kind": "equivocate", "subset_a": [0], "subset_b": [1], "at_round": 0}],
}


@pytest.mark.parametrize(
    "overrides",
    [
        {"drop": False},
        {"duplicate": "0.3"},
        {"duplicate": 1.5},
        {"duplicate": -0.1},
        {"duplicate": float("nan")},
        {"partitions": [[0, 10.0, [0]]]},
        {"partitions": [[0, 10, [True]]]},
        {"f": 1, "adversary": {**EQUIVOCATOR, "byzantine": ["2"]}},
        {"f": 1, "adversary": {**EQUIVOCATOR, "behaviors": [{"kind": "orphan_flood", "rate": 2.5}]}},
        {"f": 1, "adversary": {**EQUIVOCATOR, "behaviors": [{"kind": "withhold", "skip": [1.0]}]}},
        {
            "f": 1,
            "adversary": {
                **EQUIVOCATOR,
                "behaviors": [{"kind": "equivocate", "subset_a": [0], "subset_b": [1], "at_round": "0"}],
            },
        },
    ],
)
def test_parse_type_checks_nested_fields(overrides):
    with pytest.raises(ScenarioError, match="must be"):
        spec_with(**overrides)


@pytest.mark.parametrize(
    ("overrides", "match"),
    [
        ({"delay": [0, 5]}, "delay bounds"),
        ({"delay": [5, 2]}, "delay bounds"),
        ({"partitions": [[-3, 5, [0]]]}, "partition interval"),
        ({"partitions": [[5, 5, [0]]]}, "partition interval"),
        ({"drop": 0.2}, "Reliable requires drop probability 0"),
    ],
    ids=[
        "delay-from-zero",
        "delay-reversed",
        "partition-before-zero",
        "partition-empty",
        "drop-under-reliable",
    ],
)
def test_parse_rejects_what_the_transport_refuses(overrides, match):
    with pytest.raises(ScenarioError, match=match):
        spec_with(**overrides)


def test_old_causal_name_parses_as_reliable():
    # The Reliable transport's old name, which the benchmark's causal-clean
    # spec still uses, parses as Reliable and keeps its drop rule.
    assert spec_with(guarantee="CausalOrderReliable").guarantee is DeliveryGuarantee.RELIABLE
    with pytest.raises(ScenarioError, match="Reliable requires drop probability 0"):
        spec_with(guarantee="CausalOrderReliable", drop=0.2)


def equivocation_with(partitions=None, **behavior) -> dict:
    """`equivocation.json` (n=4, horizon 800) with its partitions or its one behavior replaced."""
    raw = json.loads((SCENARIOS / "equivocation.json").read_text())
    if partitions is not None:
        raw["partitions"] = partitions
    if behavior:
        raw["adversary"]["behaviors"] = [behavior]
    return raw


@pytest.mark.parametrize(
    ("raw", "match"),
    [
        (equivocation_with(partitions=[[0, 500, [-1]]]), "out of range"),
        (equivocation_with(partitions=[[0, 500, [0, 1, 2, 3, 9]]]), "out of range"),
        (equivocation_with(kind="equivocate", subset_a=[7], subset_b=[2]), "out of range"),
        (equivocation_with(kind="equivocate", subset_a=[-1], subset_b=[2]), "out of range"),
        (equivocation_with(kind="equivocate", subset_a=[0], subset_b=[4]), "out of range"),
        (equivocation_with(kind="withhold", skip=[9]), "out of range"),
        (equivocation_with(kind="equivocate", subset_a=[0], subset_b=[2], at_round=-1), "at_round"),
        (equivocation_with(kind="equivocate", subset_a=[0], subset_b=[2], at_round=800), "at_round"),
        (equivocation_with(kind="orphan_flood", rate=-1), "rate"),
    ],
    ids=[
        "side-negative",
        "side-beyond-n",
        "subset_a-beyond-n",
        "subset_a-negative",
        "subset_b-beyond-n",
        "skip-beyond-n",
        "at_round-negative",
        "at_round-at-horizon",
        "rate-negative",
    ],
)
def test_parse_range_checks_indices_ticks_and_rates(raw, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(raw)


@pytest.mark.parametrize(
    ("adversary", "match"),
    [
        ({"byzantine": [2], "behaviours": EQUIVOCATOR["behaviors"]}, "adversary keys unexpected"),
        (
            {**EQUIVOCATOR, "behaviors": [{**EQUIVOCATOR["behaviors"][0], "at_roud": 3}]},
            "equivocate behavior keys unexpected",
        ),
        (
            {**EQUIVOCATOR, "behaviors": [{"kind": "withhold", "skip": [1], "rate": 2}]},
            "withhold behavior keys unexpected",
        ),
        (
            {**EQUIVOCATOR, "behaviors": [{"kind": "orphan_flood", "rate": 2, "burst": 4}]},
            "orphan_flood behavior keys unexpected",
        ),
    ],
    ids=["adversary-behaviours", "equivocate-at_roud", "withhold-extra", "orphan_flood-extra"],
)
def test_parse_rejects_unknown_nested_keys(adversary, match):
    # Each would parse to a runnable spec that quietly ignores the key.
    with pytest.raises(ScenarioError, match=match):
        spec_with(f=1, adversary=adversary)


def test_parse_takes_an_integer_probability():
    assert spec_with(duplicate=0).duplicate == 0.0
    assert spec_with(f=1, adversary=EQUIVOCATOR).adversary.byzantine == frozenset({2})


def test_parse_adversary_behaviors():
    spec = spec_with(
        n=4,
        f=1,
        adversary={
            "byzantine": [3],
            "behaviors": [
                {"kind": "equivocate", "subset_a": [0, 1], "subset_b": [2], "at_round": 0},
                {"kind": "withhold", "skip": [2]},
                {"kind": "orphan_flood", "rate": 2},
            ],
        },
    )
    assert spec.adversary == AdversarySpec(
        byzantine=frozenset({3}),
        behaviors=(
            Equivocate(subset_a=(0, 1), subset_b=(2,), at_round=0),
            Withhold(skip=(2,)),
            OrphanFlood(rate=2),
        ),
    )


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(BASE))
    assert load_scenario(good) == spec_with()


# -- happy-path execution -----------------------------------------------------------


def test_happy_path_all_verdicts_hold():
    metrics, verdict = run_scenario(spec_with())
    assert verdict.all_ok()
    assert metrics.applied_counts == [24, 24, 24]
    assert metrics.quiescence_tick is not None
    assert metrics.convergence_tick is not None
    assert len(set(metrics.final_digests)) == 1
    assert metrics.rejected_ops == [0, 0, 0]


def test_run_is_deterministic():
    m1, v1 = run_scenario(spec_with())
    m2, v2 = run_scenario(spec_with())
    assert v1 == v2
    assert [ev.line() for ev in m1.trace] == [ev.line() for ev in m2.trace]
    assert m1.final_digests == m2.final_digests
    assert m1.width == m2.width
    m3, _ = run_scenario(spec_with(seed=6))
    assert [ev.line() for ev in m3.trace] != [ev.line() for ev in m1.trace]


def test_trace_records_point_at_the_event_ids():
    # A causal-clean-like run: n=8, Reliable, d=4, delay 1..10.
    # Each record holds the id bytes its vertex holds, about 96 bytes per
    # record; a 16-character hex copy of the id in each one costs 57-65 more.
    spec = spec_with(n=8, delay=[1, 10], d=4, seed=1)
    sim = Simulation(spec)
    trace, vertices = sim.net.trace, sim.nodes[0].state.vertices
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(spec.horizon):
            sim.step()
        assert all(ev.event is vertices[ev.event].id for ev in trace)
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        records = len(trace)
        trace.clear()
        gc.collect()
        without_trace = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > 500
    assert (with_trace - without_trace) / records <= 120


def test_csv_and_trace_shapes():
    metrics, _ = run_scenario(spec_with(horizon=50))
    csv = width_series_csv(metrics)
    lines = csv.strip().split("\n")
    assert lines[0] == "tick,replica,width"
    assert len(lines) == 1 + 50 * 3
    assert lines[1] == "0,0,1" or lines[1].startswith("0,0,")
    tsv = trace_tsv(metrics)
    first = tsv.split("\n")[0].split("\t")
    assert len(first) == 5
    assert first[1] in {"SEND", "DELIVER", "DROP", "BACKFILL_REQ", "BACKFILL_RESP", "GOSSIP"}
    assert len(first[4]) == 16


def test_termination_fails_when_horizon_too_short():
    metrics, verdict = run_scenario(spec_with(delay=[1, 100], horizon=30, rounds=3))
    assert not verdict.termination
    assert metrics.quiescence_tick is None


def test_buffers_drain_under_reordering():
    metrics, verdict = run_scenario(spec_with(delay=[1, 100], horizon=600, rounds=5))
    assert verdict.all_ok()
    assert all(occ[-1] == 0 for occ in metrics.buffer_occupancy)
    assert max(max(occ) for occ in metrics.buffer_occupancy) > 0  # reordering actually buffered
    assert sum(metrics.stale_parent_ops) > 0


def test_convergence_tick_is_quiescence_tick_on_happy_path():
    metrics, _ = run_scenario(spec_with())
    assert metrics.quiescence_tick is not None
    assert metrics.convergence_tick == metrics.quiescence_tick


def test_quiescence_without_convergence():
    # Replica 1 never sees the withholder's ops and nothing gossips, so the
    # run settles with the correct replicas on different digests.
    spec = spec_with(
        n=3,
        f=1,
        adversary={"byzantine": [2], "behaviors": [{"kind": "withhold", "skip": [1]}]},
        rounds=3,
        horizon=100,
        grace=10,
        seed=3,
    )
    metrics, verdict = run_scenario(spec)
    assert metrics.quiescence_tick == 17
    assert metrics.convergence_tick is None
    assert not verdict.eventual_delivery


def test_dag_invariants_catch_extremity_corruption_healed_later(monkeypatch):
    original = MegState.apply_add
    corrupted = []

    def corrupt_then_heal(self, op):
        applied = original(self, op)
        if applied and not corrupted:
            # Leave a parent listed as an extremity ...
            self._extremities.add(op.parents[0])
            corrupted.append((self, op.parents[0]))
        elif applied and len(corrupted) == 1 and corrupted[0][0] is self:
            # ... and repair the bookkeeping on the same state's next apply.
            self._extremities.discard(corrupted[0][1])
            corrupted.append(None)
        return applied

    monkeypatch.setattr(MegState, "apply_add", corrupt_then_heal)
    _, verdict = run_scenario(spec_with())
    assert len(corrupted) == 2
    state = corrupted[0][0]
    assert state.is_rooted_dag() and extremities_consistent(state)  # healed by the end
    assert not verdict.dag_invariants


FOREIGN_ID = b"\xee" * 32


def slip_in_stray(state, vertex):
    # A vertex the delivery does not report, hidden from the extremities, so
    # only the size of the graph shows it.
    stray = make_vertex("msg", b"stray", vertex.sender, 99, (state.root,))
    state.vertices[stray.id] = stray


def add_foreign_extremity(state, vertex):
    state._extremities.add(FOREIGN_ID)


def leave_a_parent_in_place(state, vertex):
    state._extremities.update(vertex.parents)


def swap_an_extremity(state, vertex):
    # The set keeps its size: one other extremity out, an id that is no vertex in.
    state._extremities.remove(min(state._extremities - {vertex.id}))
    state._extremities.add(FOREIGN_ID)


@pytest.mark.parametrize(
    "corrupt",
    [slip_in_stray, add_foreign_extremity, leave_a_parent_in_place, swap_an_extremity],
    ids=["stray-vertex", "foreign-extremity", "parent-left-in-place", "swapped-extremity"],
)
def test_ingest_counts_a_stray_vertex(monkeypatch, corrupt):
    # One delivery corrupts the state right after its apply: counted once,
    # and the next delivery, checked against the corrupted state, is not.
    writer, reader = make_node(0, n=2), make_node(1, n=2)
    first = writer.make_op("msg", b"first", parents=(writer.state.root,))
    assert reader.receive_envelope(first) == [first.id]
    original = MegState.apply_add
    corrupted = []

    def corrupt_once(self, op):
        applied = original(self, op)
        if applied and not corrupted:
            corrupt(self, op)
            self._sorted_extremities = None
            corrupted.append(op.id)
        return applied

    monkeypatch.setattr(MegState, "apply_add", corrupt_once)
    env = writer.make_op("msg", b"a", parents=(writer.state.root,))
    assert reader.receive_envelope(env) == [env.id]
    assert corrupted == [env.id]
    assert reader.invariant_failures == 1
    child = writer.make_op("msg", b"b", parents=(env.id,))
    assert reader.receive_envelope(child) == [child.id]
    assert reader.invariant_failures == 1


def test_ingest_counts_a_vertex_reported_as_new_twice(monkeypatch):
    # A re-delivery whose apply claims the present vertex is new: the graph
    # does not grow by the number applied.
    original = MegState.apply_add
    monkeypatch.setattr(
        MegState, "apply_add", lambda self, op: original(self, op) or op.id in self.vertices
    )
    writer, reader = make_node(0, n=2), make_node(1, n=2)
    env = writer.make_op("msg", b"a")
    assert reader.receive_envelope(env) == [env.id]
    assert reader.invariant_failures == 0
    assert reader.receive_envelope(env) == [env.id]
    assert reader.invariant_failures == 1
    assert reader.state.is_rooted_dag() and extremities_consistent(reader.state)


# -- checker negative controls ---------------------------------------------------------


def test_strong_convergence_checker_rejects_divergence():
    same_set = {b"\x01" * 32}
    assert check_strong_convergence([(same_set, b"d1"), (same_set, b"d1")])
    assert not check_strong_convergence([(same_set, b"d1"), (same_set, b"d2")])
    # different sets with different digests is fine
    assert check_strong_convergence([({b"\x01" * 32}, b"d1"), ({b"\x02" * 32}, b"d2")])


def fabricated_metrics(applied_sets, broadcast, buffered):
    n = len(applied_sets)
    return Metrics(
        width=[[1]] * n,
        buffer_occupancy=[[0]] * n,
        applied_counts=[len(s) for s in applied_sets],
        stale_parent_ops=[0] * n,
        rejected_ops=[0] * n,
        convergence_tick=0,
        quiescence_tick=0,
        trace=[],
        final_digests=[b"d"] * n,
        applied_sets=applied_sets,
        correct_indices=tuple(range(n)),
        correct_broadcast_ids=broadcast,
        buffered_correct_origin=buffered,
    )


def test_eventual_delivery_checker_clauses():
    a, b = b"\x0a" * 32, b"\x0b" * 32
    # all correct replicas hold everything: pass
    m = fabricated_metrics([{a, b}, {a, b}], {a}, [0, 0])
    assert check_eventual_delivery(m)
    # a broadcast op missing somewhere: fail
    m = fabricated_metrics([{a}, set()], {a}, [0, 0])
    assert not check_eventual_delivery(m)
    # op applied by one correct replica but not another: fail
    m = fabricated_metrics([{b}, set()], set(), [0, 0])
    assert not check_eventual_delivery(m)
    # leftover buffered op from a correct sender: fail
    m = fabricated_metrics([{a}, {a}], {a}, [1, 0])
    assert not check_eventual_delivery(m)


# -- node-level helpers ------------------------------------------------------------------


def make_node(idx=0, d=2, n=1):
    keys = [SigningKey.from_seed(f"harness-test:{i}") for i in range(max(n, idx + 1))]
    directory = MembershipDirectory(
        {k.replica_id: k.verification_key for k in keys}, f=0
    )
    return ReplicaNode(idx, keys[idx], directory, "harness-room", d, seed=1)


def test_maybe_emit_dummy_threshold():
    node = make_node(d=2)
    for i in range(12):
        env = node.make_op("msg", bytes([i]))
        node.absorb(env)
        # re-parent everything on the root by marking ops as siblings:
    # width after a chain is 1; dummy must not fire
    assert maybe_emit_dummy(node, threshold=10, dummy_d=10) is None
    # widen: many children of the current extremity via distinct nodes is
    # overkill here; instead lower the threshold beneath the current width.
    assert maybe_emit_dummy(node, threshold=0, dummy_d=10) is not None


def test_dummy_content_and_cap():
    node = make_node(d=2)
    env = maybe_emit_dummy(node, threshold=0, dummy_d=10)
    assert env.kind == "dummy"
    assert env.body == b""


def test_equivocate_builds_two_concurrent_ops():
    sim = Simulation(spec_with(f=1, adversary=EQUIVOCATOR))
    node = sim.nodes[2]
    assert Equivocate(subset_a=(0,), subset_b=(1,)).act(sim, node, 0)
    va, vb = (node.state.vertices[ev.event] for ev in sim.net.trace if ev.kind == "SEND")
    assert va.id != vb.id
    assert va.parents == vb.parents  # same snapshot
    assert {va.id, vb.id} <= node.state.vertices.keys()
    assert node.state.get_extremities() == {va.id, vb.id}
    assert extremities_consistent(node.state)
    assert node.stale_parent_ops == 1  # the second op sits on parents the first covered


def test_serve_backfill_returns_ancestor_closure(monkeypatch):
    node = make_node(d=2)
    envs = []
    for i in range(5):
        env = node.make_op("msg", bytes([i]))
        node.absorb(env)
        envs.append(env)
    tip = envs[-1].id
    served = node.serve_backfill(frozenset({tip}))
    served_ids = {e.id for e in served}
    assert served_ids == {e.id for e in envs}  # whole chain, root excluded
    assert node.serve_backfill(frozenset({b"\x77" * 32})) == ()
    monkeypatch.setattr(harness, "BACKFILL_BATCH", 2)
    assert node.serve_backfill(frozenset({tip})) == (envs[-1], envs[-2])


def test_serve_backfill_never_serves_the_root():
    # The root is in the state the walk reads, but nobody signed it.
    node = make_node(d=2)
    env = node.make_op("msg", b"a")
    node.absorb(env)
    root = node.state.root
    assert node.serve_backfill(frozenset({root})) == ()
    assert node.serve_backfill(frozenset({root, env.id})) == (env,)


def test_serve_backfill_answer_grows_once_a_buffered_id_applies(monkeypatch):
    writer, server = make_node(0, n=2), make_node(1, n=2)
    env_p = writer.make_op("msg", b"p", parents=(writer.state.root,))
    env_x = writer.make_op("msg", b"x", parents=(env_p.id,))
    assert server.receive_envelope(env_x) == []  # buffered, missing p
    x = frozenset({env_x.id})
    assert server.serve_backfill(x) == (env_x,)
    assert server.receive_envelope(env_p) == [env_p.id, env_x.id]
    assert server.serve_backfill(x) == (env_x, env_p)
    assert server.serve_backfill(x | {b"\x77" * 32}) == (env_x, env_p)
    monkeypatch.setattr(harness, "BACKFILL_BATCH", 1)
    assert server.serve_backfill(x) == (env_x,)


def count_verifications(monkeypatch) -> list[int]:
    """Count `verify_envelope` calls made by replicas from now on."""
    calls = [0]
    verify = harness.verify_envelope

    def counted(*args):
        calls[0] += 1
        return verify(*args)

    monkeypatch.setattr(harness, "verify_envelope", counted)
    return calls


def count_encodings(monkeypatch) -> dict[str, int]:
    """Count `encode_vertex_fields` and `compute_event_id` calls from now on."""
    calls = {"encode_vertex_fields": 0, "compute_event_id": 0}
    for module in (core, monitor):
        for name in calls:

            def counted(*args, name=name, fn=getattr(module, name)):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("on_root", [False, True])
def test_make_op_encodes_the_event_once(monkeypatch, on_root):
    node = make_node(d=2)
    calls = count_encodings(monkeypatch)
    node.make_op("msg", b"a", parents=(node.state.root,) if on_root else None)
    assert calls == {"encode_vertex_fields": 1, "compute_event_id": 1}


def test_each_encoding_is_hashed_once(monkeypatch):
    # Making an op and checking an arrival each encode the vertex once, to
    # hash it; signing and checking the signature use the id.
    spec = adversary_spec([{"kind": "orphan_flood", "rate": 2}], rounds=3, gossip_period=10)
    calls = count_encodings(monkeypatch)
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok()
    assert {"GOSSIP", "BACKFILL_RESP"} <= {ev.kind for ev in metrics.trace}
    assert calls["encode_vertex_fields"] == calls["compute_event_id"] > 0


def test_backfill_skips_held_ids_before_verification(monkeypatch):
    writer, reader, reference = (make_node(i, n=3) for i in range(3))
    root = writer.state.root
    env_a = writer.make_op("msg", b"a", parents=(root,))
    env_b = writer.make_op("msg", b"b", parents=(env_a.id,))
    assert reader.receive_envelope(env_b) == []  # b is buffered, missing a
    forged_a = dataclasses.replace(env_a, signature=bytes(32))
    forged_b = dataclasses.replace(env_b, signature=bytes(32))
    net = Network(3, NetworkConfig(DeliveryGuarantee.RELIABLE))
    verified = count_verifications(monkeypatch)
    # forged_b reuses the buffered id; forged_a and env_b reuse ids that
    # env_a, the one new parent, applies or wakes earlier in the response.
    response = BackfillResponse((forged_b, env_a, forged_a, env_b))
    assert reader.route(net, 0, response)
    assert verified[0] == 1
    assert reader.rejected_ops == 0
    assert reader.applied == {env_a.id, env_b.id}
    assert len(reader.buffer) == 0
    assert reader.invariant_failures == 0
    for env in (env_a, env_b):
        reference.receive_envelope(env)
    assert reader.state.state_digest() == reference.state.state_digest()
    assert reader.state.vertices[env_b.id] is env_b  # the first, verified copy


@pytest.mark.parametrize("guarantee", list(DeliveryGuarantee))
def test_route_rejects_an_unhashable_id_on_both_arms(monkeypatch, guarantee):
    # An id that is not bytes may not even hash, so it is never looked up as
    # held: as an operation and in a backfill answer alike, the copy goes to
    # the gate, counts as rejected, and asks for no repair.
    writer, reader = make_node(0, n=2), make_node(1, n=2)
    env = writer.make_op("msg", b"a", parents=(writer.state.root,))
    bad = dataclasses.replace(env, id=[1, 2])
    net = Network(2, NetworkConfig(guarantee))
    requests = []
    monkeypatch.setattr(net, "request_backfill", lambda *args: requests.append(args))
    assert not reader.route(net, 0, bad)
    assert reader.route(net, 0, BackfillResponse((bad, env)))  # the rest still applies
    assert reader.rejected_ops == 2
    assert reader.applied == {env.id}
    assert requests == [] and not reader._deadlines


def test_stale_parent_ops_counts_first_applies_only():
    writer, reader, late = (make_node(i, n=3) for i in range(3))
    envs = []
    for i in range(3):
        env = writer.make_op("msg", bytes([i]))
        writer.absorb(env)
        envs.append(env)
    for env in envs:
        assert reader.receive_envelope(env) == [env.id]
    assert reader.stale_parent_ops == 0
    for env in envs:  # re-delivery applies nothing and is not a stale reference
        assert reader.receive_envelope(env) == []
    assert reader.stale_parent_ops == 0
    old = late.make_op("msg", b"late")  # parent: the root, long since covered
    assert reader.receive_envelope(old) == [old.id]
    assert reader.stale_parent_ops == 1
    # An op on the root and on a fresh parent counts once it applies, whether
    # it arrives after that parent or waits in the buffer until it arrives.
    a, b = envs[0], envs[1]  # a's parent is the root, b's is a
    o = late.make_op("msg", b"o", parents=(late.state.root, b.id))
    for order in ((b, o), (o, b)):
        fresh = make_node(1, n=3)
        fresh.receive_envelope(a)
        for env in order:
            fresh.receive_envelope(env)
        assert fresh.applied == {env.id for env in (a, b, o)}
        assert fresh.stale_parent_ops == 1


# -- adversarial scenarios ------------------------------------------------------------------


def adversary_spec(behaviors, **overrides):
    return spec_with(
        n=4,
        f=1,
        adversary={"byzantine": [3], "behaviors": behaviors},
        **overrides,
    )


@pytest.mark.parametrize(
    ("rate", "overrides"),
    [
        (2, dict(rounds=3, horizon=300, grace=40)),
        (5, dict(rounds=40, updates_per_round=1, gossip_period=20, seed=1)),
    ],
    ids=["rate-2", "rate-5-gossip"],
)
def test_orphan_flood_does_not_break_liveness(rate, overrides):
    # The orphans wait in the pending buffer and do not hold the run open;
    # junk from byzantine senders does not count against eventual delivery.
    spec = adversary_spec([{"kind": "orphan_flood", "rate": rate}], **overrides)
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok(), verdict
    # the junk really is sitting in buffers
    assert any(occ[-1] > 0 for occ in metrics.buffer_occupancy[:3])
    assert metrics.buffered_correct_origin[:3] == [0, 0, 0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_reliable_orphan_flood_is_released():
    # Every verdict holds, yet each correct replica ends with all 200 orphans
    # (rate 5 x 40 rounds) buffered, and every deferred request goes to the
    # flooder, which never answers.
    spec = adversary_spec(
        [{"kind": "orphan_flood", "rate": 5}],
        delay=[1, 10],
        rounds=40,
        updates_per_round=1,
        d=4,
        gossip_period=20,
        horizon=300,
        grace=30,
        seed=1,
    )
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok(), verdict
    assert [metrics.buffer_occupancy[i][-1] for i in metrics.correct_indices] == [0, 0, 0]


# Fuzz cases 394 and 808 of `scripts/fuzz_fingerprints.py`, which converged at
# ticks 136 and 28 before missing parents were asked for only `delay[1]` ticks
# after their child arrived, and once; a partition holds the parent past that.
LATE_REPAIR_CASES = [
    (
        {
            "n": 4, "f": 1, "guarantee": "Reliable", "delay": [1, 30], "drop": 0.0,
            "duplicate": 0.3, "partitions": [[19, 66, [0, 2]]],
            "adversary": {"byzantine": [1], "behaviors": [{"kind": "withhold", "skip": [0]}]},
            "rounds": 6, "updates_per_round": 1, "d": 2, "dummy_threshold": 3, "dummy_d": 4,
            "gossip_period": 0, "horizon": 300, "grace": 40, "seed": 362161,
        },
        136,
    ),
    (
        {
            "n": 5, "f": 1, "guarantee": "Reliable", "delay": [1, 1], "drop": 0.0,
            "duplicate": 0.3, "partitions": [[9, 52, [3]]],
            "adversary": {
                "byzantine": [4],
                "behaviors": [
                    {"kind": "equivocate", "subset_a": [0], "subset_b": [1, 3, 2], "at_round": 1}
                ],
            },
            "rounds": 5, "updates_per_round": 3, "d": 3, "dummy_threshold": 5, "dummy_d": 5,
            "gossip_period": 10, "horizon": 300, "grace": 20, "seed": 346449,
        },
        28,
    ),
]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
@pytest.mark.parametrize(("raw", "tick"), LATE_REPAIR_CASES, ids=["case-394", "case-808"])
def test_partition_held_parent_is_repaired_in_time(raw, tick):
    metrics, verdict = run_scenario(parse_scenario(raw))
    assert verdict.all_ok(), verdict
    converged = metrics.convergence_tick
    assert converged is not None and converged <= tick


# The second is fuzz case 770 of `scripts/fuzz_fingerprints.py`, which storms
# to about 520 applies per replica.
DUMMY_STORM_CASES = [
    dict(
        n=5,
        delay=[1, 30],
        duplicate=0.3,
        rounds=4,
        d=3,
        dummy_threshold=4,
        dummy_d=2,
        gossip_period=25,
        horizon=400,
        grace=20,
        seed=80452,
    ),
    {
        "n": 5, "f": 0, "guarantee": "Reliable", "delay": [1, 10], "drop": 0.0,
        "duplicate": 0.3, "partitions": [[0, 23, [0, 1, 2]]], "adversary": None,
        "rounds": 3, "updates_per_round": 3, "d": 3, "dummy_threshold": 3, "dummy_d": 3,
        "gossip_period": 10, "horizon": 300, "grace": 40, "seed": 331586,
    },
]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("overrides", DUMMY_STORM_CASES, ids=["seed-80452", "case-770"])
def test_dummy_storm_settles(overrides):
    # Every correct replica emits a dummy on every tick while its width is
    # above the threshold, and the concurrent dummies keep the width up.
    _, verdict = run_scenario(spec_with(**overrides))
    assert verdict.all_ok(), verdict


def test_withhold_without_gossip_breaks_delivery():
    spec = adversary_spec(
        [{"kind": "withhold", "skip": [2]}], rounds=2, horizon=300, grace=40
    )
    metrics, verdict = run_scenario(spec)
    assert not verdict.eventual_delivery  # replica 2 never sees byz ops
    assert verdict.strong_convergence  # applied sets differ, so vacuous


def test_withhold_with_gossip_heals():
    spec = adversary_spec(
        [{"kind": "withhold", "skip": [2]}],
        rounds=2,
        horizon=400,
        grace=60,
        gossip_period=15,
    )
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok()
    backfills = [ev for ev in metrics.trace if ev.kind == "BACKFILL_RESP"]
    assert backfills


def test_equivocation_positive_and_negative():
    behaviors = [
        {"kind": "equivocate", "subset_a": [0, 1], "subset_b": [2], "at_round": 0}
    ]
    pos = adversary_spec(
        behaviors,
        rounds=3,
        updates_per_round=1,
        partitions=[[0, 120, [0, 1]]],
        gossip_period=20,
        horizon=400,
        grace=60,
    )
    metrics, verdict = run_scenario(pos)
    assert verdict.all_ok()
    forked = metrics.applied_sets[3] - metrics.correct_broadcast_ids
    assert len(forked) == 2
    for i in (0, 1, 2):
        assert forked <= metrics.applied_sets[i]

    neg = adversary_spec(
        behaviors,
        rounds=1,
        updates_per_round=1,
        partitions=[[0, 120, [0, 1]]],
        gossip_period=0,
        horizon=400,
        grace=60,
    )
    metrics, verdict = run_scenario(neg)
    assert not verdict.eventual_delivery
    assert verdict.strong_convergence


def test_equivocation_delivers_to_the_left_out_replica():
    # Replica 2 is left out of the first equivocating send; it must still
    # get the second one and everything after it.
    spec = load_scenario(SCENARIOS / "equivocation.json")
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok()
    assert metrics.applied_counts == [11, 11, 11, 11]


@pytest.mark.parametrize("name, seed", [("equivocation.json", 5), ("withhold.json", 3)])
def test_run_settles_after_backfilling_a_left_out_op(name, seed):
    # A replica left out of an op gets it by backfill; its buffered children
    # must then apply, or the run never quiesces.
    spec = dataclasses.replace(load_scenario(SCENARIOS / name), seed=seed)
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok()
    assert len(set(metrics.applied_counts)) == 1


DEFERRAL_PINNED = dict(
    n=5,
    delay=[1, 30],
    duplicate=0.3,
    partitions=[[10, 60, [0, 1]]],
    rounds=6,
    d=3,
    dummy_threshold=4,
    dummy_d=6,
    gossip_period=15,
    horizon=400,
    grace=40,
    seed=11,
)


def test_reliable_deferral_trace_is_pinned():
    """Buffered early arrivals, duplicate copies and partition deferral, byte for byte."""
    metrics, verdict = run_scenario(spec_with(**DEFERRAL_PINNED))
    assert verdict.all_ok()
    assert metrics.applied_counts == [67] * 5
    assert metrics.convergence_tick == 149
    # Taken from the transport that still dropped duplicates, with each such
    # drop logged as DELIVER instead, so the pin is not read off this code.
    assert hashlib.sha256(trace_tsv(metrics).encode()).hexdigest() == (
        "e2f34871c3daeb8e079dd328ef49d550b5043bf1005c90b9702b29c8306aab53"
    )


def test_reliable_repair_trace_is_pinned():
    """Backfill, gossip, duplicate copies and orphan buffering, byte for byte."""
    spec = spec_with(
        n=5,
        f=1,
        delay=[1, 20],
        duplicate=0.2,
        adversary={"byzantine": [4], "behaviors": [{"kind": "orphan_flood", "rate": 3}]},
        rounds=6,
        d=3,
        gossip_period=10,
        horizon=300,
        grace=40,
        seed=11,
    )
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok()
    assert metrics.convergence_tick == 64
    # Taken like the deferral pin above.
    assert hashlib.sha256(trace_tsv(metrics).encode()).hexdigest() == (
        "3030f2b32c4d0df68795cc509246f792dd1d01e143824cfdcc5bfed1a1689931"
    )
    # Requests correct replicas still get once the run has converged: a
    # peer that answered and has applied nothing since is not asked again.
    # Asking on every gossip, the count was 278.
    late_requests = sum(
        1
        for ev in metrics.trace
        if ev.kind == "BACKFILL_REQ"
        and ev.tick > metrics.convergence_tick
        and ev.receiver in metrics.correct_indices
    )
    assert late_requests == 6
    assert hashlib.sha256(b"".join(metrics.final_digests)).hexdigest() == (
        "4f2ce3270a4f9e16823bb5c7b8990c4d0b18fe87e130d270e15931d0f403c105"
    )


def test_reliable_repair_verifies_about_once_per_delivery(monkeypatch):
    # Backfill responses repeat ancestors the requester already holds; only
    # envelopes it does not hold may be verified again.  Replica 2 never gets
    # the withholder's operations, so repair cannot be avoided.
    spec = spec_with(
        n=8,
        f=1,
        adversary={"byzantine": [7], "behaviors": [{"kind": "withhold", "skip": [2]}]},
        d=4,
        delay=[1, 10],
        rounds=2,
        updates_per_round=4,
        gossip_period=15,
        horizon=300,
        grace=40,
        seed=1,
    )
    verified = count_verifications(monkeypatch)
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok()
    assert any(ev.kind == "BACKFILL_RESP" for ev in metrics.trace)
    deliveries = sum(1 for ev in metrics.trace if ev.kind == "DELIVER")
    assert verified[0] <= 1.1 * deliveries


def test_fault_free_reliable_run_needs_no_backfill(monkeypatch):
    # Every parent arrives within the delay window, so no request is due.
    spec = spec_with(n=8, d=4, delay=[1, 10], rounds=2, updates_per_round=4, seed=1)
    verified = count_verifications(monkeypatch)
    metrics, verdict = run_scenario(spec)
    assert verdict.all_ok()
    kinds = {ev.kind for ev in metrics.trace}
    assert "BACKFILL_REQ" not in kinds and "BACKFILL_RESP" not in kinds
    assert verified[0] == sum(1 for ev in metrics.trace if ev.kind == "DELIVER")


def out_of_order_arrival(monkeypatch, guarantee):
    """A reader that got b before its parent a; returns the pieces and the requests sent."""
    writer, reader = make_node(0, n=2), make_node(1, n=2)
    root = writer.state.root
    env_a = writer.make_op("msg", b"a", parents=(root,))
    env_b = writer.make_op("msg", b"b", parents=(env_a.id,))
    net = Network(2, NetworkConfig(guarantee, delay=(1, 5)))
    requests = []
    monkeypatch.setattr(
        net, "request_backfill", lambda me, peer, missing: requests.append((me, peer, set(missing)))
    )
    assert not reader.route(net, 0, env_b)
    return reader, net, env_a, requests


@pytest.mark.parametrize("parent_arrives", [False, True])
def test_reliable_request_waits_for_the_delay_window(monkeypatch, parent_arrives):
    # The child arrives first and is buffered; it applies once its parent
    # arrives, and its parent is asked for only if it is still missing when
    # the delay window is over.
    reader, net, env_a, requests = out_of_order_arrival(monkeypatch, DeliveryGuarantee.RELIABLE)
    due = net.tick + net.config.delay[1]
    while net.tick < due:
        reader.request_overdue(net)
        assert requests == []
        if parent_arrives and net.tick == due - 1:
            assert reader.route(net, 0, env_a)
        net.step()
    for _ in range(3):  # asked once at the deadline, never re-armed
        reader.request_overdue(net)
        net.step()
    if parent_arrives:
        assert requests == [] and len(reader.buffer) == 0 and len(reader.applied) == 2
    else:
        assert requests == [(1, 0, {env_a.id})]


def test_best_effort_request_goes_out_at_once(monkeypatch):
    reader, net, env_a, requests = out_of_order_arrival(monkeypatch, DeliveryGuarantee.BEST_EFFORT)
    assert requests == [(1, 0, {env_a.id})]


def test_best_effort_duplicate_of_a_buffered_op_asks_again(monkeypatch):
    # The first request or its answer may have been dropped, so each copy
    # that finds the operation still buffered asks again, unverified.
    reader, net, env_a, requests = out_of_order_arrival(monkeypatch, DeliveryGuarantee.BEST_EFFORT)
    (env_b,) = reader.buffer.held.values()
    verified = count_verifications(monkeypatch)
    assert not reader.route(net, 0, env_b)
    assert requests == [(1, 0, {env_a.id})] * 2
    assert verified[0] == 0


def test_reliable_duplicate_of_a_buffered_op_arms_no_second_deadline(monkeypatch):
    reader, net, env_a, requests = out_of_order_arrival(monkeypatch, DeliveryGuarantee.RELIABLE)
    (env_b,) = reader.buffer.held.values()
    verified = count_verifications(monkeypatch)
    net.step()
    assert not reader.route(net, 0, env_b)
    assert verified[0] == 0
    for _ in range(3 * net.config.delay[1]):
        reader.request_overdue(net)
        net.step()
    assert requests == [(1, 0, {env_a.id})]


# -- no repeat request to a peer that answered and has not changed -----------------------------

PHANTOM = b"\x55" * 32


def orphan_at_the_reader(monkeypatch, guarantee, partitions=()):
    """A writer, and a reader holding one op whose parent nobody has.

    Returns the two replicas, a network with one-tick delays, and the list of
    requests the reader sends, each as (peer, the frozenset sent).
    """
    writer, reader = make_node(0, n=2), make_node(1, n=2)
    orphan = writer.make_op("msg", b"x", parents=(PHANTOM,))
    assert reader.receive_envelope(orphan) == []
    net = Network(2, NetworkConfig(guarantee, delay=(1, 1), partitions=partitions))
    sent = []
    request = net.request_backfill

    def recorded(me, peer, missing):
        if me == reader.idx:
            sent.append((peer, missing))
        request(me, peer, missing)

    monkeypatch.setattr(net, "request_backfill", recorded)
    return writer, reader, net, sent


def deliver(nodes, net):
    """Step until the network hands something over, and route it; return the messages.

    Returns [] once nothing is left in flight.
    """
    while not net.queue_empty():
        got = net.step()
        for receiver, sender, msg in got:
            nodes[receiver].route(net, sender, msg)
        if got:
            return [msg for _, _, msg in got]
    return []


@pytest.mark.parametrize("guarantee", list(DeliveryGuarantee))
def test_an_unchanged_peer_that_answered_is_not_asked_again(monkeypatch, guarantee):
    writer, reader, net, sent = orphan_at_the_reader(monkeypatch, guarantee)
    nodes = (writer, reader)
    gossip = GossipMessage(writer.state.get_extremities())
    reader.route(net, 0, gossip)
    assert sent == [(0, frozenset({PHANTOM}))]
    (request,) = deliver(nodes, net)
    assert isinstance(request, BackfillRequest)
    (answer,) = deliver(nodes, net)
    assert answer.envelopes == () and answer.answers is request.missing
    reader.route(net, 0, GossipMessage(writer.state.get_extremities()))
    assert len(sent) == 1 and net.queue_empty()


def test_an_answer_to_another_request_does_not_count(monkeypatch):
    # The overdue request names the same ids, but it is not the request the
    # gossip triggered; an answer to it leaves that one unanswered.
    writer, reader, net, sent = orphan_at_the_reader(monkeypatch, DeliveryGuarantee.RELIABLE)
    gossip = GossipMessage(writer.state.get_extremities())
    reader.route(net, 0, gossip)
    overdue = frozenset({PHANTOM})
    reader.route(net, 0, BackfillResponse(writer.serve_backfill(overdue), overdue))
    reader.route(net, 0, gossip)
    assert [missing for _, missing in sent] == [overdue, overdue]
    # The second request is the first sent again, so either answer counts.
    assert sent[1][1] is sent[0][1]
    reader.route(net, 0, BackfillResponse((), sent[0][1]))
    reader.route(net, 0, gossip)
    assert len(sent) == 2


def test_a_peer_with_new_extremities_is_asked_again(monkeypatch):
    writer, reader, net, sent = orphan_at_the_reader(monkeypatch, DeliveryGuarantee.RELIABLE)
    nodes = (writer, reader)
    reader.route(net, 0, GossipMessage(writer.state.get_extremities()))
    deliver(nodes, net)
    deliver(nodes, net)
    # The writer applies an op the reader holds too: the request would name
    # the same ids, but the peer is not the one that answered.
    env = writer.make_op("msg", b"y")
    writer.absorb(env)
    assert reader.receive_envelope(env) == [env.id]
    reader.route(net, 0, GossipMessage(writer.state.get_extremities()))
    assert [missing for _, missing in sent] == [frozenset({PHANTOM})] * 2
    assert sent[1][1] is not sent[0][1]


def test_a_request_a_partition_cut_is_asked_again(monkeypatch):
    cut = (Partition(0, 4, frozenset({0})),)
    writer, reader, net, sent = orphan_at_the_reader(
        monkeypatch, DeliveryGuarantee.RELIABLE, partitions=cut
    )
    nodes = (writer, reader)
    gossip = GossipMessage(writer.state.get_extremities())
    for asked in (1, 2):
        reader.route(net, 0, gossip)
        assert len(sent) == asked
        assert deliver(nodes, net) == []  # cut: dropped, never answered
    assert [ev.kind for ev in net.trace] == ["DROP", "DROP"]
    reader.route(net, 0, gossip)  # healed: this one is answered
    assert len(sent) == 3
    deliver(nodes, net)
    deliver(nodes, net)
    assert [ev.kind for ev in net.trace][2:] == ["BACKFILL_REQ", "BACKFILL_RESP"]
    reader.route(net, 0, gossip)
    assert len(sent) == 3


# -- stepping a simulation by hand -----------------------------------------------------------

APPEND_TICKS = 20


class SimulationMachine(RuleBasedStateMachine):
    """Appends and ticks in random order, through the methods `run_scenario` uses.

    Links are reliable without gossip, or, with gossip on, lossy or reliable,
    so the repair paths that drops and gossip trigger meet the invariants too.
    """

    @initialize(
        n=st.integers(min_value=2, max_value=4),
        link=st.sampled_from(
            [(0, "Reliable", 0.0), (10, "Reliable", 0.0), (10, "BestEffort", 0.2)]
        ),
        duplicate=st.sampled_from([0.0, 0.3]),
        partition=st.none()
        | st.tuples(
            st.integers(min_value=0, max_value=APPEND_TICKS),
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=1, max_value=3),
        ),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def start(self, n, link, duplicate, partition, seed):
        gossip_period, guarantee, drop = link
        partitions = []
        if partition is not None:
            start, length, side = partition
            partitions = [[start, start + length, list(range(min(side, n - 1)))]]
        self.sim = Simulation(
            spec_with(
                n=n,
                guarantee=guarantee,
                drop=drop,
                gossip_period=gossip_period,
                duplicate=duplicate,
                partitions=partitions,
                rounds=0,
                horizon=APPEND_TICKS + 100,
                grace=20,
                seed=seed,
            )
        )

    @precondition(lambda self: self.sim.net.tick < APPEND_TICKS)
    @rule(i=st.integers(min_value=0, max_value=3))
    def append(self, i):
        self.sim.append(i % self.sim.spec.n)

    @precondition(lambda self: self.sim.net.tick < self.sim.spec.horizon)
    @rule()
    def step(self):
        self.sim.step()

    @invariant()
    def held_ops_verify(self):
        # `route` skips a copy whose id is held, so every op held in the
        # state or the buffer but the root must be an envelope the gate accepts.
        for node in self.sim.nodes:
            held = [*node.state.vertices.values(), *node.buffer.held.values()]
            for op in held:
                if op.id != node.state.root:
                    assert verify_envelope(op, node.directory) is None

    @invariant()
    def replicas_stay_consistent(self):
        nodes = self.sim.nodes
        assert [node.invariant_failures for node in nodes] == [0] * len(nodes)
        assert check_strong_convergence([(node.applied, node.state.state_digest()) for node in nodes])

    def teardown(self):
        while self.sim.net.tick < self.sim.spec.horizon:
            self.sim.step()
        _, verdict = self.sim.finish()
        assert verdict.all_ok(), verdict


TestSimulationMachine = SimulationMachine.TestCase
TestSimulationMachine.settings = settings(max_examples=25, stateful_step_count=40, deadline=None)


# -- lockstep rounds ---------------------------------------------------------------------


def test_lockstep_widths_start_at_u0():
    widths = run_lockstep_rounds(3, 2, rounds=0, seed=1, u0=40)
    assert widths == [40]


def test_lockstep_rejects_a_negative_start_width():
    with pytest.raises(ValueError, match="u0"):
        run_lockstep_rounds(3, 2, rounds=3, seed=1, u0=-4)


def test_lockstep_rejects_a_parent_cap_below_two():
    with pytest.raises(ValueError, match="parent cap"):
        run_lockstep_rounds(3, 1, rounds=0, seed=1)
    # Dummies take up to d parents too.
    with pytest.raises(ValueError, match="parent cap"):
        run_lockstep_rounds(3, 1, rounds=0, seed=1, u0=5, dummy_threshold=2)


def test_lockstep_deterministic():
    a = run_lockstep_rounds(4, 2, rounds=10, seed=3)
    b = run_lockstep_rounds(4, 2, rounds=10, seed=3)
    assert a == b


def test_lockstep_widths_are_pinned():
    def sha256_of_repr(value) -> str:
        return hashlib.sha256(repr(value).encode()).hexdigest()

    assert (
        sha256_of_repr(run_lockstep_rounds(32, 3, 200, 1))
        == "1d081e6a035efff6fd2888474e6c973a9da67f4c2dc5e2d5d90bf5dea8c619b1"
    )
    assert (
        sha256_of_repr(run_lockstep_rounds(32, 3, 80, 1, u0=1280))
        == "3360fadf21c2b37b1047221384c759a636aae02b6f14d573f0c18394b007521e"
    )


def test_lockstep_dummy_depletion_plateaus():
    widths = run_lockstep_rounds(3, DUMMY_D, rounds=30, seed=2, u0=40, dummy_threshold=10)
    assert widths[0] == 40
    assert min(widths) <= fixed_point(DUMMY_D, 3)
    # once below the threshold nothing changes any more
    tail = widths[-5:]
    assert len(set(tail)) == 1 and tail[0] <= 10


def test_lockstep_steady_state_tracks_urn_fixed_point():
    # With ongoing updates the width should hover near the analytic plateau.
    widths = run_lockstep_rounds(3, 5, rounds=40, seed=7, u0=30)
    fp = fixed_point(5, 3)
    assert max(widths[20:]) <= 3 * fp
